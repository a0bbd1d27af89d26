"""Root data for the basic classical families gl, osp (B/C/D) and q.

Coordinates are normalized so that the eps block always carries the larger
side: eps count m >= delta count n, and the distinguished component
Delta# = {alpha even : (alpha, alpha) > 0} lies in the span of the eps_i.
A request such as B(1, 2) or gl(2|3) is re-embedded accordingly; the
user-facing labels are kept on the SuperType for reporting.

`WEYL_TYPES` names the Weyl type (A, B, C or D) of each embedding's eps
and delta blocks.  The positive even roots are the two blocks' roots,
generated from it, and `groups` reads W#'s order from its eps type.
`diagram_type` reads from it the one type that the standard pairs and
bow diagrams of gl, B and D depend on.

Root sets are stored as three frozensets: the fixed positive even roots,
all odd roots, and Delta#.  Positive odd roots are not fixed here; they
depend on the choice of simple system and live in `simple.SimpleSystem`.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from operator import attrgetter

from .errors import ValidationError
from .records import Frozen, _set
from .weights import Weight, coordinate_order, form4, weight_json

FAMILIES = ("GL", "B", "D", "C", "Q")

# internal embeddings: which block carries the single/long roots
GL_TAG = "GL"
B_EPS = "B_EPS"        # so(2m+1) on eps, sp(2n) on delta
B_DELTA = "B_DELTA"    # sp(2m) on eps, so(2n+1) on delta
D_EPS = "D_EPS"        # so(2m) on eps, sp(2n) on delta
D_DELTA = "D_DELTA"    # sp(2m) on eps, so(2n) on delta
C_TAG = "C"
Q_TAG = "Q"

# the Weyl types of each embedding's (eps, delta) blocks, which make
# Delta_0+; a type-A block of zero or one coordinates has no roots
WEYL_TYPES = {
    GL_TAG: ("A", "A"),
    B_EPS: ("B", "C"),
    B_DELTA: ("C", "B"),
    D_EPS: ("D", "C"),
    D_DELTA: ("C", "D"),
    C_TAG: ("C", "A"),
    Q_TAG: ("A", "A"),
}


def diagram_type(tag: str) -> str | None:
    """A, B or D: the type whose bow diagrams draw the embedding's pairs.

    A on gl, and on B and D the type of the orthogonal block in
    `WEYL_TYPES` (the other one is of type C).  None on C and q, which
    have no diagrams.
    """
    if tag in (C_TAG, Q_TAG):
        return None
    eps, delta = WEYL_TYPES[tag]
    return delta if eps == "C" else eps


class SuperType(Frozen):
    """User-facing family label.  For C and Q only n is meaningful.

    C(n) is osp(2|2n): its even part sp(2n) sits on n eps coordinates, so
    this C(n) is Kac's C(n+1), not osp(2|2n-2).
    """

    __slots__ = ("family", "m", "n", "sharp_choice")
    _key = attrgetter(*__slots__)

    def __init__(self, family: str, m: int = 1, n: int = 0,
                 sharp_choice: str | None = None):
        # sharp_choice only for B(n,n): 'B_side'/'C_side'
        _set(self, "family", family)
        _set(self, "m", m)
        _set(self, "n", n)
        _set(self, "sharp_choice", sharp_choice)
        if self.family not in FAMILIES:
            raise ValidationError("unknown family %r" % (self.family,))
        if self.family in ("C", "Q"):
            if self.n < 2:
                raise ValidationError("%s(n) needs n >= 2" % self.family)
        else:
            if self.m < 1 or self.n < 0:
                raise ValidationError("need m >= 1 and n >= 0")
            if self.family == "D" and max(self.m, self.n) < 1:
                raise ValidationError("D(m,n) needs positive ranks")
        if self.sharp_choice not in (None, "B_side", "C_side"):
            raise ValidationError("sharp_choice must be B_side or C_side")
        if self.sharp_choice is not None and not (
                self.family == "B" and self.m == self.n):
            raise ValidationError("sharp_choice only applies to B(n,n)")

    def label(self) -> str:
        if self.family in ("C", "Q"):
            return "%s(%d)" % (self.family, self.n)
        if self.family == "GL":
            return "gl(%d|%d)" % (self.m, self.n)
        extra = ""
        if self.family == "B" and self.m == self.n:
            extra = ",%s" % ("B#" if self.sharp_choice == "B_side" else "C#")
        return "%s(%d,%d%s)" % (self.family, self.m, self.n, extra)


class RootSystem(Frozen):
    """Root data in normalized coordinates (eps block >= delta block).

    family is the internal embedding tag, m and n the eps and delta
    counts, and marking_mode 'M' or 'N', diagram metadata.
    """

    __slots__ = ("stype", "family", "m", "n", "positive_even", "odd",
                 "sharp", "defect", "marking_mode")
    _key = attrgetter(*__slots__)

    def __init__(self, stype: SuperType, family: str, m: int, n: int,
                 positive_even: frozenset, odd: frozenset, sharp: frozenset,
                 defect: int, marking_mode: str):
        for name, value in zip(self.__slots__, (
                stype, family, m, n, positive_even, odd, sharp, defect,
                marking_mode)):
            _set(self, name, value)

    def even(self) -> frozenset:
        return self.positive_even | frozenset(-a for a in self.positive_even)

    def all_roots(self) -> frozenset:
        return self.even() | self.odd

    def eps(self, i: int) -> Weight:
        return Weight.eps_unit(i, self.m, self.n)

    def delta(self, j: int) -> Weight:
        return Weight.delta_unit(j, self.m, self.n)


def is_isotropic(alpha: Weight) -> bool:
    return form4(alpha, alpha) == 0


def _block_roots(kind: str, units: Sequence[Weight]) -> set:
    """The positive roots of a type-kind block on its unit weights.

    e_i - e_j (i < j), plus e_i + e_j unless the type is A, plus e_i on B
    and 2 e_i on C.
    """
    out = set()
    for i, a in enumerate(units):
        for b in units[i + 1:]:
            out.add(a - b)
            if kind != "A":
                out.add(a + b)
        if kind == "B":
            out.add(a)
        elif kind == "C":
            out.add(a.scale(2))
    return out


def build(stype: SuperType) -> RootSystem:
    """Construct the normalized root data for a user-facing type.

    The even roots are the two blocks' roots under `WEYL_TYPES`.  The odd
    roots are +-(eps_i - delta_j) on gl and +-eps_i +- delta_j elsewhere,
    plus +-e_i on the C block of B; on q they are a copy of Delta_0.
    """
    fam, p, q = stype.family, stype.m, stype.n
    if fam in ("GL", "B", "D"):
        on_eps = p > q or p == q and (
            fam == "GL" or stype.sharp_choice == "B_side")
        if fam == "GL":
            tag = GL_TAG
        elif fam == "B":
            tag = B_EPS if on_eps else B_DELTA
        else:
            tag = D_EPS if on_eps else D_DELTA
        (m, n), mode = ((p, q), "M") if on_eps else ((q, p), "N")
        defect = min(p, q)
    elif fam == "C":
        # n eps coordinates carrying C_n, one delta coordinate; all odd
        # roots +-eps_i +- delta_1 are isotropic and the defect is 1.
        tag, m, n, mode, defect = C_TAG, q, 1, "M", 1
    else:
        # Q(n): Delta_0 = Delta_1 = A_{n-1} on eps with the positive
        # definite form
        tag, m, n, mode, defect = Q_TAG, q, 0, "M", 0
    eps_kind, delta_kind = WEYL_TYPES[tag]
    eps = [Weight.eps_unit(i, m, n) for i in range(1, m + 1)]
    delta = [Weight.delta_unit(j, m, n) for j in range(1, n + 1)]
    pos_even = _block_roots(eps_kind, eps) | _block_roots(delta_kind, delta)
    if tag == Q_TAG:
        odd = set(pos_even)
    else:
        odd = {e - d for e in eps for d in delta}
        if tag != GL_TAG:
            odd |= {e + d for e in eps for d in delta}
        # osp(2k+1|2l): the short odd roots sit on the C block
        if eps_kind == "B":
            odd |= set(delta)
        elif delta_kind == "B":
            odd |= set(eps)
    odd |= {-a for a in odd}
    return RootSystem(stype, tag, m, n, frozenset(pos_even), frozenset(odd),
                      _positive_square(pos_even), defect, mode)


def _positive_square(pos_even: Iterable[Weight]) -> frozenset:
    """Delta#: even roots of positive square length, both signs."""
    out = set()
    for a in pos_even:
        if form4(a, a) > 0:
            out.add(a)
            out.add(-a)
    return frozenset(out)


def simple_roots(positive: Iterable[Weight]) -> tuple:
    """Simple roots of a positive system, in coordinate order.

    A positive root is simple iff it is not a sum of two positive roots.
    """
    pos_list = sorted(positive, key=coordinate_order)
    sums = set()
    for i, a in enumerate(pos_list):
        for b in pos_list[i:]:
            sums.add(a + b)
    return tuple(a for a in pos_list if a not in sums)


def root_json(w: Weight, odd: bool) -> dict:
    return dict(weight_json(w), parity="odd" if odd else "even")


def _roots_json(roots: Iterable[Weight], odd: bool) -> list:
    return [root_json(a, odd) for a in sorted(roots, key=coordinate_order)]


def system_json(rs: RootSystem) -> dict:
    """Deterministic JSON payload listing the root data."""
    return {
        "type": rs.stype.label(),
        "family": rs.stype.family,
        "m": rs.stype.m if rs.stype.family not in ("C", "Q") else rs.stype.n,
        "n": rs.stype.n,
        "sharp_choice": rs.stype.sharp_choice,
        "eps_count": rs.m,
        "delta_count": rs.n,
        "defect": rs.defect,
        "positive_even": _roots_json(rs.positive_even, False),
        "odd": _roots_json(rs.odd, True),
        "sharp_positive": _roots_json(rs.sharp & rs.positive_even, False),
    }

"""Bow diagrams for admissible pairs and their two moves.

A pair is drawn by sorting the m+n coordinate lines by the value of the
defining functional, marking sharp-side coordinates `a` and the others
`b`, and joining the two coordinates of each element of S by a bow:
smile for a difference, frown for a sum.  The two moves (swapping the
vertices of a smile, sliding a bow past a free `a`) mirror the odd
reflections at S and the exchange moves, so connected components of the
pair graph become orbits of diagrams.  Every frown-free diagram
normalizes to b-a blocks followed by plain a's; a frown is pinned to the
front and the rest normalizes the same way.
"""

from __future__ import annotations

from operator import attrgetter

from .errors import DomainError, StructuralError, ValidationError
from .records import Frozen, _set
from .roots import D_EPS, RootSystem, diagram_type
from .simple import (PAIR_CAP, AdmissiblePair, enumerate_admissible_pairs,
                     isotropic_parts, pair_components, pair_from_word)

SMILE = "smile"
FROWN = "frown"
_GLYPH = {SMILE: "⌣", FROWN: "⌢"}
_ASCII = {SMILE: "(_)", FROWN: "(^)"}


class Diagram(Frozen):
    """Marks in increasing functional order plus adjacent disjoint bows.

    bows holds (left, right, kind), sorted, with right = left + 1; mode
    names the user block that carries the sharp roots.
    """

    __slots__ = ("marks", "bows", "mode")
    _key = attrgetter(*__slots__)

    def __init__(self, marks: tuple, bows: tuple, mode: str):
        _set(self, "marks", marks)
        _set(self, "bows", bows)
        _set(self, "mode", mode)

    def validate(self) -> "Diagram":
        if any(mk not in ("a", "b") for mk in self.marks):
            raise ValidationError("marks must be a or b")
        if self.marks.count("a") < self.marks.count("b"):
            raise ValidationError("more b marks than a marks")
        vertices = set()
        frowns = 0
        for left, right, kind in self.bows:
            if right != left + 1:
                raise ValidationError("bow (%d,%d) is not adjacent"
                                      % (left, right))
            if {self.marks[left], self.marks[right]} != {"a", "b"}:
                raise ValidationError("bow (%d,%d) joins equal marks"
                                      % (left, right))
            if vertices & {left, right}:
                raise ValidationError("bows share a vertex at (%d,%d)"
                                      % (left, right))
            vertices |= {left, right}
            if kind == FROWN:
                frowns += 1
                if (left, right) != (0, 1) or self.marks[0] != "a":
                    raise ValidationError("a frown may only lead as a-b")
            elif kind != SMILE:
                raise ValidationError("unknown bow kind %r" % (kind,))
        if frowns > 1:
            raise ValidationError("at most one frown")
        for p, mk in enumerate(self.marks):
            if mk == "b" and p not in vertices:
                raise ValidationError("b at position %d is not a vertex" % p)
        return self

    def bow_at(self, left: int) -> tuple | None:
        for bow in self.bows:
            if bow[0] == left:
                return bow
        return None

    def is_vertex(self, p: int) -> bool:
        return any(p in (left, right) for left, right, _ in self.bows)

    def has_frown(self) -> bool:
        return any(kind == FROWN for _, _, kind in self.bows)

    def render(self, style: str = "unicode") -> str:
        glyphs = _GLYPH if style == "unicode" else _ASCII
        out = []
        for p, mk in enumerate(self.marks):
            out.append(mk)
            bow = self.bow_at(p)
            if bow is not None:
                out.append(glyphs[bow[2]])
        return "".join(out)

    def to_json(self) -> dict:
        return {
            "marks": "".join(self.marks),
            "bows": [{"left": left, "right": right, "kind": kind}
                     for left, right, kind in self.bows],
            "mode": self.mode,
            "render": self.render(),
        }


def _mk(marks, bows, mode) -> Diagram:
    return Diagram(tuple(marks), tuple(sorted(bows)), mode).validate()


def from_pair(pair: AdmissiblePair) -> Diagram:
    """Draw the pair: order the coordinates by the functional, bow S.

    The functional f has <f, alpha> = 1 on Pi, and the frame's height row
    orders the coordinates as f does.  The two agree on span(Pi), the
    whole space on B and D; on gl the span is the sum-zero hyperplane,
    where any two such functionals differ by c*(1, ..., 1), which keeps
    the order.  For k != l, x_k - x_l is a root of gl, B or D, so its
    height is a nonzero integer: the order has no ties.  An S root whose
    ends are not neighbours fails the diagram's validation.
    """
    rs = pair.rs
    if diagram_type(rs.family) is None:
        raise DomainError("diagrams cover the gl/B/D families")
    row = pair.system._height_functional[0]
    order = sorted(range(rs.m + rs.n), key=row.__getitem__)
    position = {k: p for p, k in enumerate(order)}
    marks = ["a" if k < rs.m else "b" for k in order]
    bows = []
    for beta in pair.S:
        ei, dj, kind = isotropic_parts(beta)
        p, q = sorted((position[ei - 1], position[rs.m + dj - 1]))
        bows.append((p, q, FROWN if kind == "sum" else SMILE))
    diagram = _mk(marks, bows, rs.marking_mode)
    if diagram.has_frown() and not (rs.family == D_EPS and rs.m > rs.n):
        raise ValidationError("sum bows occur only for D with more a's")
    return diagram


# ---------------------------------------------------------------------------
# moves

def move_swap(d: Diagram, bow: int) -> Diagram:
    """Exchange the two marks of a smile bow (the odd reflection at it)."""
    if not 0 <= bow < len(d.bows):
        raise DomainError("no bow with index %d" % bow)
    left, right, kind = d.bows[bow]
    if kind != SMILE:
        raise DomainError("only smile bows swap")
    marks = list(d.marks)
    marks[left], marks[right] = marks[right], marks[left]
    return _mk(marks, d.bows, d.mode)


def move_slide(d: Diagram, window: int) -> Diagram:
    """Rewrite ab-a <-> a-ba on the three positions starting at window.

    The bow hops over the free `a`; marks stay put.  Mirrors the exchange
    move, which changes S while keeping the simple system.
    """
    if not 0 <= window <= len(d.marks) - 3:
        raise DomainError("window %d out of range" % window)
    k = window
    if list(d.marks[k:k + 3]) not in (["a", "b", "a"],):
        raise DomainError("window is not an a,b,a stretch")
    here = {bow[:2]: bow for bow in d.bows}
    if (k + 1, k + 2) in here and not d.is_vertex(k):
        old, new = here[(k + 1, k + 2)], (k, k + 1)
    elif (k, k + 1) in here and not d.is_vertex(k + 2):
        old, new = here[(k, k + 1)], (k + 1, k + 2)
    else:
        raise DomainError("window has no slidable bow")
    if old[2] != SMILE:
        raise DomainError("only smile bows slide")
    bows = [bow for bow in d.bows if bow != old] + [new + (SMILE,)]
    return _mk(d.marks, bows, d.mode)


def available_moves(d: Diagram) -> list:
    """Every legal (kind, argument) move, deterministically ordered."""
    out = [("swap", i) for i, bow in enumerate(d.bows) if bow[2] == SMILE]
    for k in range(len(d.marks) - 2):
        try:
            move_slide(d, k)
        except DomainError:
            continue
        out.append(("slide", k))
    return out


def apply_move(d: Diagram, move: tuple) -> Diagram:
    kind, arg = move
    if kind == "swap":
        return move_swap(d, arg)
    if kind == "slide":
        return move_slide(d, arg)
    raise DomainError("unknown move %r" % (move,))


# ---------------------------------------------------------------------------
# canonical forms

def canonical_form(d: Diagram) -> tuple:
    """Greedy left-to-right normal form plus the move word that reaches it.

    Smile bows are dragged left and oriented b-a; a frown is already
    pinned at the front, so normalization works to its right.
    """
    d.validate()
    word = []
    cur = d
    target = 2 if cur.has_frown() else 0
    while True:
        rest = [bow for bow in cur.bows if bow[2] == SMILE
                and bow[0] >= target]
        if not rest:
            break
        left = min(bow[0] for bow in rest)
        while left > target:
            if cur.marks[left] != "b":
                idx = cur.bows.index(cur.bow_at(left))
                cur = move_swap(cur, idx)
                word.append(("swap", left))
            cur = move_slide(cur, left - 1)
            word.append(("slide", left - 1))
            left -= 1
        if cur.marks[left] != "b":
            idx = cur.bows.index(cur.bow_at(left))
            cur = move_swap(cur, idx)
            word.append(("swap", left))
        target += 2
    return cur, tuple(word)


def canonical_smile(m: int, n: int, mode: str) -> Diagram:
    marks = ["b", "a"] * n + ["a"] * (m - n)
    return _mk(marks, [(2 * i, 2 * i + 1, SMILE) for i in range(n)], mode)


def canonical_frown(m: int, n: int, mode: str) -> Diagram:
    marks = ["a", "b"] + ["b", "a"] * (n - 1) + ["a"] * (m - n)
    bows = [(0, 1, FROWN)] + [(2 * i, 2 * i + 1, SMILE) for i in range(1, n)]
    return _mk(marks, bows, mode)


def equivalence_classes(rs: RootSystem, cap: int = PAIR_CAP) -> list:
    """Canonical forms of the move-graph components; their count is checked.

    Components are computed on the pairs themselves, under the moves the
    diagrams realise: odd reflections in S, and exchange moves that keep
    the difference/sum kind of the replaced root.  (Kind-changing
    exchanges also preserve the alternating sum, so the classes here are
    finer than equality of the sums; counting uses the bow moves only.)
    Each component's drawable members must share one canonical diagram.
    Some D pairs carry a sum root away from the front and have no
    diagram; they still belong to a component.  One class everywhere
    except D with m > n, which splits into the frown-free class and the
    frown class.
    """
    if diagram_type(rs.family) is None:
        raise DomainError("diagrams cover the gl/B/D families")
    if rs.defect < 1:
        raise DomainError("no bows without isotropic roots")
    out = []
    for component in pair_components(enumerate_admissible_pairs(rs, cap),
                                     same_kind_only=True):
        canons = set()
        for pair in component:
            try:
                diagram = from_pair(pair)
            except ValidationError:
                continue
            canons.add(canonical_form(diagram)[0])
        if len(canons) != 1:
            raise StructuralError(
                "component of %s yields %d canonical diagrams"
                % (rs.stype.label(), len(canons)))
        out.append(canons.pop())
    if len(set(out)) != len(out):
        raise StructuralError("distinct components share a canonical form")
    out.sort(key=lambda d: d.render())
    expected = 2 if rs.family == D_EPS else 1
    if len(out) != expected:
        raise StructuralError(
            "%s falls into %d diagram classes, expected %d"
            % (rs.stype.label(), len(out), expected))
    return out


# ---------------------------------------------------------------------------
# reconstruction

def pair_from_diagram(d: Diagram, rs: RootSystem) -> AdmissiblePair:
    """Rebuild the admissible pair a diagram came from.

    simple.pair_from_word reads the rendered word.  The diagram comes from
    outside, so it is validated first, must have the shape of rs, and the
    rebuilt pair must draw back to it.
    """
    d.validate()
    if diagram_type(rs.family) is None:
        raise DomainError("diagrams cover the gl/B/D families")
    if len(d.marks) != rs.m + rs.n or d.marks.count("a") != rs.m:
        raise DomainError("diagram shape does not match %s" % rs.stype.label())
    pair = pair_from_word(rs, d.render())
    if from_pair(pair) != d:
        raise StructuralError("reconstructed pair draws differently")
    return pair

"""Signed-permutation realizations of the even Weyl group and its parts.

W acts on weights by permuting eps coordinates among themselves and delta
coordinates among themselves, with optional sign flips where the family
allows them.  A signed permutation stores one flat gather tuple over the
weight layout (eps block first, delta block offset by m): src[j] = +-(k+1)
means w(x)[j] = +-x[k], the same kind of flat int tuple as a weight's
doubled coordinates.  Acting on a weight, or composing, is one gather;
`images`, where each basis vector goes, is derived from it.  One private
closure on raw tuples, each generator compiled once and a label carried
along each edge, builds every element list: `weyl_group` and
`sharp_group` enumerate W and W# (the group generated by reflections in
the positive-square even roots) once per root system, the label being
the determinant, and `sharp_ball` walks to the W# elements within a
height only, the label being the determinant and the simple coordinates
of rho - w rho in the pair's frame, which a step updates on ints with no
solve.  Elements come in discovery order, which nothing reads.
`weyl_generators` keeps W's simple reflections apart, so a skewness
check never enumerates W.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Sequence
from functools import lru_cache, partial
from operator import attrgetter, itemgetter, mul, sub

from .errors import DomainError, ResourceLimitError, StructuralError
from .records import Frozen, _set
from .roots import WEYL_TYPES, RootSystem, simple_roots
from .simple import AdmissiblePair, SimpleSystem
from .weights import Weight, bilinear_form, coordinate_order, form4

DEFAULT_CAP = 10 ** 6


class SignedPermutation(Frozen):
    """Monomial map on the flat layout, stored as one signed gather tuple.

    src[j] = s * (k + 1) means w(x)[j] = s * x[k] over the flat basis
    b = (eps_1..eps_m, delta_1..delta_n), with j and k 0-based and s = +-1;
    equivalently w(b_k) = s * b_j.  Acting on a coordinate tuple is one
    gather, and `images`, the per-basis-vector view (j, s), is derived.
    sign is the determinant when the maker knows it (the group closure
    carries it along); it takes no part in equality.
    """

    __slots__ = ("src", "m", "sign")
    _key = attrgetter("src", "m")

    def __init__(self, src: tuple, m: int, sign: int | None = None):
        _set(self, "src", src)
        _set(self, "m", m)
        _set(self, "sign", sign)

    @staticmethod
    def identity(m: int, n: int) -> "SignedPermutation":
        return SignedPermutation(tuple(range(1, m + n + 1)), m)

    @staticmethod
    def from_images(images: Sequence, m: int) -> "SignedPermutation":
        """The map with w(b_k) = s * b_j for images[k] = (j, s)."""
        src = [0] * len(images)
        for k, (j, s) in enumerate(images):
            src[j] = s * (k + 1)
        return SignedPermutation(tuple(src), m)

    @property
    def images(self) -> tuple:
        """images[k] = (j, s) with w(b_k) = s * b_j; inverts from_images."""
        out = [None] * len(self.src)
        for j, a in enumerate(self.src):
            out[abs(a) - 1] = (j, 1 if a > 0 else -1)
        return tuple(out)

    def apply(self, w: Weight) -> Weight:
        if w.m != self.m or len(w.doubled) != len(self.src):
            raise StructuralError("weight/permutation dimension mismatch")
        return Weight(_gather(self.src, w.doubled), self.m)

    def compose(self, other: "SignedPermutation") -> "SignedPermutation":
        """self after other (acts as self(other(x)))."""
        return SignedPermutation(_gather(self.src, other.src), self.m)

    def is_identity(self) -> bool:
        return self.src == tuple(range(1, len(self.src) + 1))

    def sgn(self) -> int:
        """Determinant: permutation parity times the product of signs."""
        if self.sign is not None:
            return self.sign
        out = _perm_parity([abs(a) - 1 for a in self.src])
        for a in self.src:
            if a < 0:
                out = -out
        return out


def _gather(src: tuple, values: tuple) -> tuple:
    """The signed gather out[j] = +-values[k] for src[j] = +-(k + 1).

    This is w(x) for w with gather tuple src; applied to another gather
    tuple it composes.  Private on purpose: it runs once per weight.
    """
    return tuple([values[a - 1] if a > 0 else -values[-a - 1] for a in src])


def _compiled(g: SignedPermutation):
    """g as one callable on raw tuples, built once per caller.

    An itemgetter when g flips no sign (most simple reflections); with a
    sign flip, or on a single coordinate, the gather itself, which costs
    the same as an itemgetter followed by a pass of signs.
    """
    src = g.src
    if len(src) > 1 and min(src) > 0:
        return itemgetter(*[a - 1 for a in src])
    return partial(_gather, src)


def _perm_parity(perm: Sequence[int]) -> int:
    seen = [False] * len(perm)
    parity = 1
    for i in range(len(perm)):
        if seen[i]:
            continue
        ln = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            ln += 1
        if ln % 2 == 0:
            parity = -parity
    return parity


def reflection(alpha: Weight) -> SignedPermutation:
    """Reflection in a non-isotropic root, realized as a signed permutation.

    Each basis vector must go to a signed basis vector of its own block.
    The image b - 2 (b, alpha) / (alpha, alpha) alpha is computed on the
    doubled ints times 4 (alpha, alpha), so no rational is built.
    """
    norm = form4(alpha, alpha)
    if norm == 0:
        raise DomainError("cannot reflect in isotropic root %s" % alpha)
    m, n = alpha.dims()
    images = []
    for k in range(m + n):
        b = Weight.unit(k, m, n)
        f = 2 * form4(b, alpha)
        img = [norm * x - f * a for x, a in zip(b.doubled, alpha.doubled)]
        hits = [(j, v) for j, v in enumerate(img) if v != 0]
        if len(hits) != 1 or abs(hits[0][1]) != 2 * abs(norm) \
                or (hits[0][0] < m) != (k < m):
            raise StructuralError(
                "reflection image of %s in %s is not a signed unit of its "
                "block" % (b, alpha))
        images.append((hits[0][0], 1 if hits[0][1] * norm > 0 else -1))
    return SignedPermutation.from_images(images, m)


@lru_cache(maxsize=None)
def simple_reflections(positive: frozenset) -> tuple:
    """(root, reflection) for each simple root of a positive even system."""
    return tuple((a, reflection(a)) for a in simple_roots(positive))


def _closure(start: tuple, label, moves: Sequence, cap: int) -> dict:
    """The elements reached from start by left-multiplying by generators.

    A BFS on raw gather tuples: moves holds, for each generator g, g
    compiled (`_compiled`), so g w is one gather of w's tuple, and a move
    that makes the label of g w from the label of w.  start's label is
    given and every other one rides along an edge, so none is computed
    from scratch.  A label None marks an element outside: it is left out
    of the result and never walked past.  Returns {gather tuple: label}
    of the elements inside, in discovery order.
    """
    seen = {start: label}
    frontier = [start] if label is not None else []
    while frontier:
        nxt = []
        for w in frontier:
            x = seen[w]
            for act, move in moves:
                u = act(w)
                if u not in seen:
                    y = seen[u] = move(x)
                    if y is not None:
                        nxt.append(u)
                    if len(seen) > cap:
                        raise ResourceLimitError(
                            "group enumeration exceeded cap %d" % cap)
        frontier = nxt
    return {w: x for w, x in seen.items() if x is not None}


def enumerate_group(generators: Sequence[SignedPermutation], dims: tuple,
                    cap: int = DEFAULT_CAP) -> tuple:
    """The group the generators generate, by the closure from 1.

    The label is the determinant: sgn(g w) = sgn(g) sgn(w).
    """
    moves = [(_compiled(g), partial(mul, g.sgn())) for g in generators]
    signs = _closure(SignedPermutation.identity(*dims).src, 1, moves, cap)
    return tuple(SignedPermutation(w, dims[0], s) for w, s in signs.items())


@lru_cache(maxsize=None)
def weyl_generators(rs: RootSystem) -> tuple:
    """W's even simple roots with their reflections."""
    return simple_reflections(rs.positive_even)


@lru_cache(maxsize=None)
def weyl_group(rs: RootSystem) -> tuple:
    """The elements of the full even Weyl group W."""
    return enumerate_group([g for _, g in weyl_generators(rs)], (rs.m, rs.n))


@lru_cache(maxsize=None)
def sharp_group(rs: RootSystem) -> tuple:
    """The elements of W#: StructuralError unless there are m! (A), 2^m m!
    (B, C) or 2^(m-1) m! (D), by the eps block's type in `WEYL_TYPES`, as
    sums over W# reindex by it as a group."""
    gens = simple_reflections(rs.sharp & rs.positive_even)
    out = enumerate_group([g for _, g in gens], (rs.m, rs.n))
    kind = WEYL_TYPES[rs.family][0]
    twos = {"A": 0, "D": rs.m - 1}.get(kind, rs.m)
    order = 2 ** twos * math.factorial(rs.m)
    if len(out) != order:
        raise StructuralError("W# of %s has %d elements, not %d"
                              % (rs.stype.label(), len(out), order))
    return out


def sharp_ball(pair: AdmissiblePair, H: int) -> dict:
    """{w: mu_w} for the w in W# with ht(rho - w rho) <= H, signs carried.

    mu_w is the simple coordinates of rho - w rho in the pair's frame, an
    int tuple, and its height is sum(mu_w).  W#'s simple roots alpha
    must be positive in the frame (StructuralError).  v, made by
    reflecting in them while <mu, alpha^vee> < 0, takes rho to its
    W#-dominant mu+ (v = 1 on admissible pairs, by rho-descent), and
    w rho = x mu+ for x = w v^-1.  If s_alpha x is longer than x, then
    x^-1 alpha > 0, so ht(rho - s_alpha x mu+) = ht(rho - x mu+) +
    <mu+, (x^-1 alpha)^vee> ht(alpha) is no less: the height never falls
    along a reduced word, and a walk from v, left-multiplying by simple
    reflections and pruned past H, reaches the whole ball (also where v
    itself lies past H, and the ball is empty).

    Only v's coordinates are solved (`SimpleSystem._raw_cone_key`).  A
    step u = s_alpha w adds k c(alpha) to mu_w, c(alpha) being alpha's
    step in the frame's root table and k = <w rho, alpha^vee> =
    <rho, alpha^vee> - sum_j mu_w[j] <pi_j, alpha^vee>, on int rows built
    once per generator (`_ball_move`).  k can be a half-integer (1/2 on
    B(1,2) for alpha = 2 eps_2), so the lattice check is on k c(alpha):
    a key that leaves the ints raises StructuralError, as does a start
    key off the lattice, and no Fraction key is built.  A term the W#-sum
    keeps has base key mu_w plus positive steps, so its height is no less
    than sum(mu_w): the ball holds it.
    """
    rs, frame = pair.rs, pair.system
    gens = simple_reflections(rs.sharp & rs.positive_even)
    if any(not frame.is_positive_root(a) for a, _ in gens):
        raise StructuralError("a simple root of W# is negative in this frame")
    mu = frame.rho
    v, sign = SignedPermutation.identity(rs.m, rs.n).src, 1
    while bent := [g for a, g in gens if form4(mu, a) * form4(a, a) < 0]:
        mu, v, sign = bent[0].apply(mu), _gather(bent[0].src, v), -sign
    r = frame.rho.doubled
    top = tuple(map(sub, r, _gather(v, r)))
    start = frame._raw_cone_key(top)
    if any(type(c) is not int for c in start):
        raise StructuralError("rho - v rho = %s leaves the root lattice of "
                              "the frame" % Weight(top, rs.m))
    moves = [(_compiled(g), _ball_move(frame, a, g.sgn(), H))
             for a, g in gens]
    height = sum(start)
    labels = _closure(v, (sign, start, height) if height <= H else None,
                      moves, DEFAULT_CAP)
    return {SignedPermutation(w, rs.m, s): key
            for w, (s, key, _) in labels.items()}


def _ball_move(frame: SimpleSystem, alpha: Weight, sign: int,
               H: int) -> Callable:
    """The walk's move for s_alpha: the label (sgn w, mu_w, sum(mu_w)) to
    u's, u = s_alpha w, or None when u's height passes H.

    k = num / form4(alpha, alpha) with num = 2 form4(w rho, alpha) =
    base - mu_w . row, base = 2 form4(rho, alpha) and row_j = 2
    form4(pi_j, alpha).  With d = gcd(form4(alpha, alpha), c(alpha)),
    k c(alpha) = t (c(alpha) / d) for t = num / q, q = form4(alpha,
    alpha) / d: an int tuple exactly when q divides num.  The height
    rises by t ht(c(alpha) / d), so a key past H is never built.
    """
    norm = form4(alpha, alpha)
    step = frame._root_steps[alpha.doubled][0]
    d = math.gcd(norm, *step)
    q, unit = norm // d, tuple(c // d for c in step)
    rise = sum(unit)
    base = 2 * form4(frame.rho, alpha)
    row = tuple(2 * form4(b, alpha) for b in frame.simple_roots)

    def move(label):
        w_sign, mu, height = label
        t, off = divmod(base - sum(map(mul, mu, row)), q)
        if off:
            raise StructuralError(
                "the reflection in %s moves rho - w rho off the root "
                "lattice of the frame" % alpha)
        height += t * rise
        if height > H:
            return None
        return (sign * w_sign, tuple([a + t * c for a, c in zip(mu, unit)]),
                height)
    return move


def orbit(lam: Weight, group: Sequence[SignedPermutation]) -> list:
    """Orbit as a list of distinct weights in coordinate order."""
    return sorted({w.apply(lam) for w in group}, key=coordinate_order)


def stabilizer(lam: Weight, group: Sequence[SignedPermutation]) -> tuple:
    """The elements of group fixing lam, in group order."""
    return tuple(w for w in group if w.apply(lam) == lam)


def check_stabilizer_dichotomy(lam: Weight,
                               group: Sequence[SignedPermutation],
                               reflections: frozenset) -> bool:
    """Stabilizer is trivial or contains one of the given reflections."""
    stab = stabilizer(lam, group)
    return len(stab) == 1 or any(w in reflections for w in stab
                                 if not w.is_identity())


def is_dominant(mu: Weight, simples: Iterable[Weight]) -> bool:
    """Nonnegative pairing of mu with every simple coroot."""
    return all(form4(mu, a) * form4(a, a) >= 0 for a in simples)


def orbit_intersects_shifted_cone(lam: Weight, orb: Sequence[Weight],
                                  frame: SimpleSystem, rho: Weight) -> bool:
    """Does orb, the orbit of lam, meet rho + (rational cone on simples)?

    The caller passes the orbit it already built, so it is built once.
    """
    for a in frame.simple_roots:
        pairing = bilinear_form(lam, a) * 2 / bilinear_form(a, a)
        if pairing.denominator != 1:
            raise DomainError("%s is not an integral weight: <.,%s^> = %s"
                              % (lam, a, pairing))
    return any(frame.cone(mu - rho) is not None
               for mu in orb)

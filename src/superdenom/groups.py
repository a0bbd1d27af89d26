"""Signed-permutation realizations of the even Weyl group and its parts.

W acts on weights by permuting eps coordinates among themselves and delta
coordinates among themselves, with optional sign flips where the family
allows them.  A signed permutation stores one flat gather tuple over the
weight layout (eps block first, delta block offset by m): src[j] = +-(k+1)
means w(x)[j] = +-x[k], the same kind of flat int tuple as a weight's
doubled coordinates.  Acting on a weight, or composing, is one gather;
`images`, where each basis vector goes, is derived from it.  One private
closure on raw tuples, each generator compiled once and the determinant
carried along, builds every element list: `weyl_group` and `sharp_group`
enumerate W and W# (the group generated by reflections in the
positive-square even roots) once per root system, and `sharp_ball`
walks to the W# elements within a height only.  Elements come in
discovery order, which nothing reads.  `weyl_generators` keeps W's simple
reflections apart, so a skewness check never enumerates W.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Sequence
from functools import lru_cache, partial
from operator import attrgetter, itemgetter, sub

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


def _closure(start: tuple, sign: int,
             generators: Sequence[SignedPermutation], m: int, cap: int,
             inside: Callable[[tuple], bool] | None = None) -> tuple:
    """The elements reached from start by left-multiplying by generators.

    A BFS on raw gather tuples, each generator compiled once, so g w is
    one compiled gather of w's tuple.  start is a gather tuple with
    determinant sign, and the determinant rides along, as sgn(g w) =
    sgn(g) sgn(w), so no element walks its parity.  A tuple that inside
    rejects is stored as 0, left out of the result and never walked past.
    Elements come in discovery order.
    """
    acts = [(_compiled(g), g.sgn()) for g in generators]
    seen = {start: sign if inside is None or inside(start) else 0}
    frontier = [start] if seen[start] else []
    while frontier:
        nxt = []
        for w in frontier:
            w_sign = seen[w]
            for act, g_sign in acts:
                u = act(w)
                if u not in seen:
                    if inside is None or inside(u):
                        seen[u] = g_sign * w_sign
                        nxt.append(u)
                    else:
                        seen[u] = 0
                    if len(seen) > cap:
                        raise ResourceLimitError(
                            "group enumeration exceeded cap %d" % cap)
        frontier = nxt
    return tuple(SignedPermutation(w, m, s) for w, s in seen.items() if s)


def enumerate_group(generators: Sequence[SignedPermutation], dims: tuple,
                    cap: int = DEFAULT_CAP) -> tuple:
    """The group the generators generate, by the closure from 1."""
    return _closure(SignedPermutation.identity(*dims).src, 1, generators,
                    dims[0], cap)


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


def sharp_ball(pair: AdmissiblePair, H: int) -> tuple:
    """The w in W# with ht(rho - w rho) <= H, signs carried.

    Heights are in the pair's frame, where W#'s simple roots alpha must be
    positive (StructuralError).  v, made by reflecting in them while
    <mu, alpha^vee> < 0, takes rho to its W#-dominant mu+ (v = 1 on
    admissible pairs, by rho-descent), and w rho = x mu+ for x = w v^-1.
    If s_alpha x is longer than x, then x^-1 alpha > 0, so
    ht(rho - s_alpha x mu+) = ht(rho - x mu+) + <mu+, (x^-1 alpha)^vee>
    ht(alpha) is no less: the height never falls along a reduced word,
    and a walk from v, left-multiplying by simple reflections and pruned
    past H, reaches the whole ball (also where v itself lies past H, and
    the ball is empty).  A term `series.expand_raw` keeps has base height
    ht(rho - w rho - phi) >= ht(rho - w rho), phi a sum of negative
    roots: the ball holds it.
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
    return _closure(v, sign, [g for _, g in gens], rs.m, DEFAULT_CAP,
                    lambda w: frame._raw_height(
                        tuple(map(sub, r, _gather(w, r)))) <= H)


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

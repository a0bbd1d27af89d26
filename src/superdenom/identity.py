"""Verification engine for the Weyl denominator identity and its lemmas.

The identity equates R e^rho, the Weyl denominator of the fixed root
datum times e^rho, with the alternating W#-sum X of the geometric terms
e^rho / prod_{beta in S}(1 + e^{-beta}) attached to an admissible pair.
`verify` merges that sum once on raw doubled tuples, over the W#
elements within H (`groups.sharp_ball`), and expands it with
`series.expand_raw`; X is W#-alternating by construction, so skewness is
checked under W_2 alone (W = W# x W_2).  Skew and the two W#-alternant
lemmas, the dropped denominator and the exchange, are decided at every
height on W#-straightened Laurent polynomials (`straighten`): none of
them expands anything, and `verify` enumerates neither W nor W#.
Everything here is exact: truncated series carry int coefficients, and
cone questions go through the frame's one solve
(`SimpleSystem._raw_cone_key`, over `weights.Elimination`), which
decides on integer numerators.  Only `y_fixed_by` and `y_shifts_by`
compare normal forms (`series.normalize`), of one-key sums: equal forms
prove equality, unequal ones nothing.  Nothing is sampled or floated.
"""

from __future__ import annotations

import math
import time
from collections.abc import Iterable, Sequence
from itertools import permutations, product
from operator import attrgetter, mul, sub

from .errors import DomainError, ResourceLimitError, StructuralError
from .groups import (DEFAULT_CAP, SignedPermutation, _gather,
                     _perm_parity, check_stabilizer_dichotomy,
                     enumerate_group, is_dominant, orbit,
                     orbit_intersects_shifted_cone, reflection, sharp_ball,
                     sharp_group, stabilizer, weyl_generators, weyl_group)
from .records import Record
from .roots import (D_EPS, RootSystem, SuperType, build, diagram_type,
                    simple_roots)
from .series import (FormalSeries, _accumulate, _ht, _Packing, expand_raw,
                     multiply, normalize, positive_step)
from .simple import (AdmissiblePair, SimpleSystem, even_frame,
                     isotropic_parts, second_type_move, standard_pair)
from .straighten import Numerator
from .weights import Q, Weight, coordinate_order, form4


def _zero(rs: RootSystem) -> Weight:
    return Weight.zero(rs.m, rs.n)


def _us(t0: float) -> int:
    return int(round((time.perf_counter() - t0) * 1_000_000))


# ---------------------------------------------------------------------------
# the two sides

def phi_data(w: SignedPermutation, pair: AdmissiblePair) -> tuple:
    """(base_key, steps): per-element bookkeeping for the expanded form of X.

    phi is the sum of the w-images of S that land negative and base_key
    the cone coordinates of rho - (w rho + phi); steps lists, in the order
    of S, the simple coordinates of the positive root +-w(beta).  It runs
    on gathers of doubled tuples, each image looked up in the frame's
    table of roots (StructuralError if it is none).
    """
    frame = pair.system
    roots = frame._root_steps
    r = frame.rho.doubled
    acc = tuple(map(sub, r, _gather(w.src, r)))
    steps = []
    for b in pair.S:
        wb = _gather(w.src, b.doubled)
        if wb not in roots:
            raise StructuralError("%s is not a root" % Weight(wb, frame.m))
        step, negative = roots[wb]
        if negative:
            acc = tuple(map(sub, acc, wb))
        steps.append(step)
    return frame._raw_cone_key(acc), steps


def _alternating_sum(group: Sequence[SignedPermutation], exponent: Weight,
                     denoms: Sequence[Weight]) -> dict:
    """sgn(w) w(e^exponent / prod_{b in denoms}(1 + e^{-b})) over the group.

    The merged raw sum: (w exponent, sorted w denoms), on doubled tuples,
    to the sum of sgn(w) over the w giving it, zeros dropped; one gather
    per weight, and no weight or term is built.
    """
    e = exponent.doubled
    ds = [b.doubled for b in denoms]
    return _accumulate({}, (
        ((_gather(w.src, e), tuple(sorted([_gather(w.src, d) for d in ds]))),
         w.sgn())
        for w in group))


def _denominator(frame: SimpleSystem, offset: Weight, odd: Iterable[Weight],
                 even: Iterable[Weight], H: int) -> FormalSeries:
    """e^offset prod_{a in even}(1 - e^{-a}) / prod_{b in odd}(1 + e^{-b}).

    Starting from e^offset, the even binomials are multiplied in first,
    in coordinate order, and the odd factors divided out after, tallest
    first (ties in coordinate order).  Every factor is a power series in
    steps of height >= 1, so any order gives the same truncated series;
    this one is the cheap one.  Dividing first expands every odd
    geometric series to height H before the even factors cancel most of
    it (gl(5|4) at H=11: a peak support of 75,582 keys for 8,324 kept,
    against 11,181 with the evens first).  Among the odd factors, a tall
    step reaches H in few terms, and dividing by it while the support is
    small costs little; the short steps, which fill the window, come
    last.  Summed over the odd factors, the support after each factor
    falls from 148,610 keys in coordinate order to 60,182 on gl(5|4)
    H=11, and from 37,742 to 16,772 on gl(4|4) H=10, while the peak
    moves from 11,181 to 11,989.  The whole product is one chain for
    `multiply`.
    """
    factors = [(positive_step(frame, a), -1)
               for a in sorted(even, key=coordinate_order)]
    steps = [positive_step(frame, b)
             for b in sorted(odd, key=coordinate_order)]
    factors += [(s, None) for s in sorted(steps, key=_ht, reverse=True)]
    zero = (0,) * len(frame.simple_roots)
    return FormalSeries(frame, H, offset, multiply(H, [({zero: 1}, factors)]))


def closed_form_sum(pair: AdmissiblePair,
                    elements: Sequence | None = None) -> dict:
    """sgn(w) w(Y) over elements (default W#), merged on raw keys."""
    return _alternating_sum(sharp_group(pair.rs) if elements is None
                            else elements, pair.system.rho, pair.S)


def lhs(pair: AdmissiblePair, H: int) -> FormalSeries:
    """R e^rho: even binomials multiplied in, then odd factors divided out."""
    return _denominator(pair.system, pair.system.rho, pair.system.pos_odd,
                        pair.rs.positive_even, H)


def rhs_closed(pair: AdmissiblePair, H: int,
               merged: dict | None = None) -> FormalSeries:
    """X as the alternating W#-sum of geometric terms, expanded to H.

    merged is `closed_form_sum` over `sharp_ball(pair, H)`, built here
    unless the caller has it: `verify` shares the ball with rhs_expanded.
    """
    if merged is None:
        merged = closed_form_sum(pair, sharp_ball(pair, H))
    return expand_raw(merged, pair.system, H)


def rhs_expanded(pair: AdmissiblePair, H: int,
                 elements: Sequence | None = None) -> FormalSeries:
    """X via the phi/|w| expansion; must agree with rhs_closed exactly.

    The sum runs over elements of W# (default: `sharp_ball(pair, H)`, which
    holds every w whose base key can lie within H).  An element whose
    base key lies past H is dropped.  The window is packed once, above
    the minimum of the base keys within H: every base key in one
    `_Packing.keys` call, and each distinct step once into a dict that
    every element's walk reads.
    """
    frame = pair.system
    rho = frame.rho
    chains = []
    for w in sharp_ball(pair, H) if elements is None else elements:
        base, steps = phi_data(w, pair)
        if _ht(base) <= H:
            chains.append((base, steps, w.sgn()))
    bases = [base for base, _, _ in chains]
    codec = _Packing.around(bases, H)
    if codec is None:
        return FormalSeries(frame, H, rho)
    packed = {s: codec.step(s) for s in {s for _, steps, _ in chains
                                         for s in steps}}
    acc = {}
    for key, (_, steps, sgn_w) in zip(codec.keys(bases), chains):
        _mu_accumulate(acc, key, [packed[s] for s in steps], sgn_w,
                       codec.limit)
    return FormalSeries(frame, H, rho,
                        (codec, {k: v for k, v in acc.items() if v}))


def _mu_accumulate(acc: dict, base: int, steps: list, sgn_w: int,
                   limit: int) -> None:
    """Add sgn_w * (-1)^{sum mu} at base + mu.steps for all mu >= 0 in range.

    Keys and steps are packed (`series._Packing`); range is below limit.
    """
    last = len(steps)

    def rec(idx, key, sign):
        if idx == last:
            acc[key] = acc.get(key, 0) + sign
            return
        step = steps[idx]
        while key < limit:
            rec(idx + 1, key, sign)
            key += step
            sign = -sign
    if base < limit:
        rec(0, base, sgn_w)


# ---------------------------------------------------------------------------
# reports

class VerificationReport(Record):
    """Self-contained record of one verification run."""

    __slots__ = ("system", "pair", "H", "lhs_terms", "rhs_terms", "equal",
                 "first_discrepancy", "timings", "checks", "note")
    _key = attrgetter(*__slots__)

    def __init__(self, system: SuperType, pair: AdmissiblePair | None,
                 H: int, lhs_terms: int, rhs_terms: int, equal: bool,
                 first_discrepancy: dict | None, timings: dict, checks: dict,
                 note: str = ""):
        for name, value in zip(self.__slots__, (
                system, pair, H, lhs_terms, rhs_terms, equal,
                first_discrepancy, timings, checks, note)):
            setattr(self, name, value)

    def to_json(self) -> dict:
        return {
            "system": self.system.label(),
            "pair": None if self.pair is None else self.pair.to_json(),
            "H": self.H,
            "lhs_terms": self.lhs_terms,
            "rhs_terms": self.rhs_terms,
            "equal": self.equal,
            "first_discrepancy": self.first_discrepancy,
            "timings": {k: self.timings[k] for k in sorted(self.timings)},
            "checks": {k: self.checks[k] for k in sorted(self.checks)},
            "note": self.note,
        }


def verify(pair: AdmissiblePair, H: int = 8) -> VerificationReport:
    """Compare both sides to height H; cross-check the expansion and skewness.

    Both sides of X sum over `sharp_ball(pair, H)`, and skewness is
    decided by straightening (`skew_invariance_check`), so neither W nor
    W# is enumerated.  Inequality is reported, never raised; the first
    discrepancy names the exponent and both coefficients.
    """
    timings, checks, note = {}, {}, ""
    t = time.perf_counter()
    left = lhs(pair, H)
    timings["lhs"] = _us(t)
    t = time.perf_counter()
    elements = sharp_ball(pair, H)
    right = rhs_closed(pair, H, closed_form_sum(pair, elements))
    timings["rhs_closed"] = _us(t)
    t = time.perf_counter()
    first = left.eq_report(right)
    checks["lhs_equals_rhs_closed"] = first is None
    timings["compare"] = _us(t)
    t = time.perf_counter()
    expand = rhs_expanded(pair, H, elements)
    diff = right.eq_report(expand)
    checks["expansion_matches_closed_form"] = diff is None
    if first is None:
        first = diff
    timings["rhs_expanded"] = _us(t)
    t = time.perf_counter()
    ok, witness = skew_invariance_check(pair)
    if ok is None:
        note = ("W2 is trivial, so skew-invariance had nothing to "
                "check: X is W#-alternating by construction")
    else:
        checks["skew_invariance"] = ok
    if first is None and witness is not None:
        first = witness
    timings["skew"] = _us(t)
    return VerificationReport(
        system=pair.rs.stype, pair=pair, H=H,
        lhs_terms=left.nonzero_count(), rhs_terms=right.nonzero_count(),
        equal=all(checks.values()), first_discrepancy=first,
        timings=timings, checks=checks, note=note)


def skew_invariance_check(pair: AdmissiblePair) -> tuple:
    """w X = sgn(w) X for every simple reflection of W_2: (ok, witness).

    W = W# x W_2 and X is W#-alternating, so only W_2's generators are
    checked; where W_2 is trivial (C, gl(m|1), D(1,n)) ok is None.  Each
    is decided at every height at once, with no expansion, on the
    straightened X D1 (`straighten.Numerator`, whose docstring has the
    proof).  The witness of the first failing generator is its least
    differing straightened key.
    """
    gens = _w2_generators(pair.rs)
    if not gens:
        return None, None
    num = Numerator(pair.system, pair.system.rho, pair.S)
    for root, g in gens:
        sign = g.sgn()
        acted = num.acted(g)
        want = {k: sign * c for k, c in num.terms.items()}
        if acted != want:
            return False, dict(num.first_difference(acted, want),
                               generator=str(root))
    return True, None


def _w2_generators(rs: RootSystem) -> list:
    """W's simple roots outside Delta#, with their reflections: W_2's."""
    return [(root, g) for root, g in weyl_generators(rs)
            if root not in rs.sharp]


# ---------------------------------------------------------------------------
# the e^rho coefficient and its stabilizer set

def stabilizer_elements(pair: AdmissiblePair) -> tuple:
    return stabilizer(pair.system.rho, sharp_group(pair.rs))


def e_rho_coefficient_set(pair: AdmissiblePair) -> tuple:
    """{w in Stab rho : wS positive}; its sign sum is the e^rho coefficient."""
    frame = pair.system
    return tuple(w for w in stabilizer_elements(pair)
                 if all(frame.is_positive_root(w.apply(b)) for b in pair.S))


def e_rho_coefficient(pair: AdmissiblePair) -> int:
    return sum(w.sgn() for w in e_rho_coefficient_set(pair))


def second_class_expected_set(rs: RootSystem) -> frozenset:
    """The three-element coefficient set of the second-class anchor pair."""
    m, n = rs.m, rs.n
    swap = reflection(rs.eps(m - 1) - rs.eps(m))
    double_flip = swap.compose(reflection(rs.eps(m - 1) + rs.eps(m)))
    return frozenset((SignedPermutation.identity(m, n), swap, double_flip))


# ---------------------------------------------------------------------------
# symbolic cross-multiplication (no truncation)

def cross_multiplied_check(pair: AdmissiblePair) -> tuple:
    """Compare X * prod_{odd+}(1+e^{-a}) with e^rho * prod_{even+}(1-e^{-a}).

    Both sides are finite Laurent polynomials, computed exactly as series
    keyed by cone coordinates of rho - exponent.  Each side is one
    `multiply` at the larger of the two sides' heights, the tallest
    ht(base) + sum ht(step) of its chains, so nothing drops and both lie
    in one window unless some base key is negative.  Returns (equal,
    left, right).
    """
    frame = pair.system
    odd = [positive_step(frame, a)
           for a in sorted(frame.pos_odd, key=coordinate_order)]
    even = [positive_step(frame, a)
            for a in sorted(pair.rs.positive_even, key=coordinate_order)]
    chains, H = [], sum(map(_ht, even))
    for w in sharp_group(pair.rs):
        base, dropped = phi_data(w, pair)
        steps = [step for step in odd if step not in dropped]
        H = max(H, _ht(base) + sum(map(_ht, steps)))
        chains.append(({base: w.sgn()}, [(step, 1) for step in steps]))
    zero = (0,) * len(frame.simple_roots)
    left = FormalSeries(frame, H, frame.rho, multiply(H, chains))
    right = FormalSeries(frame, H, frame.rho, multiply(
        H, [({zero: 1}, [(step, -1) for step in even])]))
    return left.eq_report(right) is None, left, right


# ---------------------------------------------------------------------------
# q(n)

def exchange_preserves_sum(pair: AdmissiblePair, gamma: Weight,
                           gamma_prime: Weight) -> bool:
    """X is unchanged when gamma in S is traded for gamma_prime.

    Both pairs share Pi and D1, so X_S = X_S' iff St(f_S) = St(f_S').
    """
    moved = second_type_move(pair, gamma, gamma_prime)
    frame = pair.system
    here, there = (Numerator(frame, frame.rho, S) for S in (pair.S, moved.S))
    assert here.B == there.B, "St(f_S) and St(f_S') in two packing bases"
    return here.terms == there.terms


def qn_system(n: int) -> RootSystem:
    return build(SuperType("Q", n=n))


def qn_standard_set(rs: RootSystem) -> tuple:
    """The nested set eps_i - eps_{n+1-i}, i = 1..[n/2]."""
    n = rs.m
    return tuple(rs.eps(i) - rs.eps(n + 1 - i) for i in range(1, n // 2 + 1))


def _matchings(points: tuple, k: int):
    """Every set of k disjoint pairs (p, q), p < q, of the sorted points.

    The pairs come sorted by p: the least point is either left out or
    paired with a later one.
    """
    if k == 0:
        yield ()
        return
    if len(points) < 2 * k:
        return
    first, rest = points[0], points[1:]
    yield from _matchings(rest, k)
    for i, q in enumerate(rest):
        for tail in _matchings(rest[:i] + rest[i + 1:], k - 1):
            yield ((first, q),) + tail


def qn_matchings(rs: RootSystem, S: Sequence[Weight]) -> list:
    """[(c_P, P)]: the matchings W carries S onto, with their coefficients.

    S = {eps_{x_j} - eps_{y_j}} is k pairwise orthogonal positive roots of
    A_{n-1}, i.e. k pairs with disjoint supports.  A w in S_n, acting by
    w(eps_i) = eps_{w(i)}, sends S onto {+-gamma : gamma in P} for one
    matching P, a set of k disjoint positive roots eps_p - eps_q.  The
    canonical w for P sends x_j to p_j and y_j to q_j, pair j of S onto
    pair j of P; a fill then places the n - 2k coordinates that S leaves
    free onto those that P leaves free.  Every w is reached from some
    canonical one by the two folds:

    - Order fold.  Any ordering of S's images is reached by swaps of two
      images; swapping gamma_i and gamma_j is left multiplication by
      (p_i p_j)(q_i q_j), a product of two transpositions, so it is even
      and gives the same term.  The k! orderings count alike.
    - Sign fold.  Flipping one image gamma = eps_p - eps_q to -gamma is
      left multiplication by (p q), which changes sgn, and
      1/(1 + e^{-gamma}) - 1/(1 + e^{gamma})
          = (1 - e^{-gamma})/(1 + e^{-gamma}).

    So sum_w sgn(w)/prod_{b in S}(1 + e^{-wb}) is
    sum_P c_P prod_{gamma in P}(1 - e^{-gamma})/(1 + e^{-gamma}), and
    a(S), the sum of sgn(w) over the w with wS positive (one orientation
    per image), is sum_P c_P, with c_P = k! sum_{fills} sgn(w).  The sign
    of every (canonical w, fill) is computed: with n - 2k <= 1 there is
    one fill, and with more the signs cancel to 0 in the sum.

    P is a tuple of positive roots.  StructuralError for a weight of
    another dimension; DomainError for a weight that is no positive root,
    or an S whose supports overlap (a repeated or non-orthogonal root);
    ResourceLimitError, before anything is enumerated, when the
    n!/(2^k k!) (matching, fill) pairs exceed `groups.DEFAULT_CAP`.
    """
    if any(b.dims() != (rs.m, rs.n) for b in S):
        raise StructuralError("weight/permutation dimension mismatch")
    for b in S:
        if b not in rs.positive_even:
            raise DomainError("%s is not a positive root of q(n)" % b)
    pairs = [(b.doubled.index(2), b.doubled.index(-2)) for b in S]
    support = {i for pair in pairs for i in pair}
    n, k = rs.m, len(S)
    if len(support) != 2 * k:
        raise DomainError("S = {%s} is not pairwise orthogonal: the roots "
                          "of q(n) in S must have disjoint supports"
                          % ", ".join(str(b) for b in S))
    count = math.factorial(n) // (2 ** k * math.factorial(k))
    if count > DEFAULT_CAP:
        raise ResourceLimitError(
            "q(%d) with |S| = %d has %d (matching, fill) pairs, over the "
            "cap %d" % (n, k, count, DEFAULT_CAP))
    points = tuple(range(n))
    free = [i for i in points if i not in support]
    out = []
    for P in _matchings(points, k):
        w = [0] * n
        for (x, y), (p, q) in zip(pairs, P):
            w[x], w[y] = p, q
        taken = {i for pair in P for i in pair}
        total = 0
        for fill in permutations([i for i in points if i not in taken]):
            for f, t in zip(free, fill):
                w[f] = t
            total += _perm_parity(w)
        out.append((math.factorial(k) * total,
                    tuple(rs.eps(p + 1) - rs.eps(q + 1) for p, q in P)))
    return out


def qn_a_value(rs: RootSystem, S: Sequence[Weight]) -> int:
    """a(S) = sum of sgn(w) over the w in S_n with wS positive."""
    return sum(c for c, _ in qn_matchings(rs, S))


def qn_right_side(frame: SimpleSystem, matchings: Sequence,
                  H: int) -> FormalSeries:
    """sum_P c_P prod_{gamma in P}(1 - e^{-gamma})/(1 + e^{-gamma}) to H.

    One `multiply` chain per matching (`qn_matchings`), from key 0; the
    chains with c_P = 0 pack to nothing and are skipped.
    """
    zero = (0,) * len(frame.simple_roots)
    chains = []
    for c, P in matchings:
        factors = []
        for gamma in P:
            step = positive_step(frame, gamma)
            factors += [(step, -1), (step, None)]
        chains.append(({zero: c}, factors))
    return FormalSeries(frame, H, _zero(frame.rs), multiply(H, chains))


def qn_identity(n_or_rs, S: Sequence[Weight] | None = None,
                H: int = 8) -> tuple:
    """Check a(S) * R = sum_w sgn(w) / prod_{b in S}(1 + e^{-w b}).

    Returns (report, a).  Both a(S) and the right side come from one list
    of matchings (`qn_matchings`); no group is enumerated.  When a = 0
    the right side must vanish to height H, which is checked rather than
    skipped.
    """
    rs = qn_system(n_or_rs) if isinstance(n_or_rs, int) else n_or_rs
    if rs.family != "Q":
        raise DomainError("the alternating-sum identity is specific to q(n)")
    S = qn_standard_set(rs) if S is None else tuple(S)
    timings = {}
    t = time.perf_counter()
    matchings = qn_matchings(rs, S)
    a = sum(c for c, _ in matchings)
    timings["a_value"] = _us(t)
    frame = even_frame(rs)
    t = time.perf_counter()
    left = _denominator(frame, _zero(rs), rs.positive_even, rs.positive_even,
                        H).scale(a)
    timings["lhs"] = _us(t)
    t = time.perf_counter()
    right = qn_right_side(frame, matchings, H)
    timings["rhs"] = _us(t)
    first = left.eq_report(right)
    note = ("action w(eps_i) = eps_{w(i)}; a(S) = %d for S = {%s}"
            % (a, ", ".join(str(b) for b in S)))
    if a == 0:
        note += "; identity reduces to the vanishing of the alternating sum"
    report = VerificationReport(
        system=rs.stype, pair=None, H=H,
        lhs_terms=left.nonzero_count(), rhs_terms=right.nonzero_count(),
        equal=first is None, first_discrepancy=first,
        timings=timings, checks={"identity": first is None}, note=note)
    return report, a


# ---------------------------------------------------------------------------
# regular orbits and the cone presentation of xi

def xi_vector(pair: AdmissiblePair) -> Weight:
    return sum(pair.S, _zero(pair.rs))


def regular_orbit_scan(rs: RootSystem, H: int = 10) -> list:
    """Dominant elements of the regular W-orbits inside rho_0 - Q+.

    The search region, the box, is rho_0 - {mu in Q+ : height(mu) <= H}
    in the standard frame; a key lists mu's simple coordinates.  The scan
    keeps exactly the strictly dominant lambda of the box: those with
    <lambda, a^vee> > 0 for every even simple root a.  That pairing has
    the sign of form4(lambda, a) * form4(a, a), and it is linear in the
    key, so each key is tested on ints against one row per even simple
    root; only the kept keys become Weights.  These are all the answers:

    - Every lambda in the box has rho_0 - lambda in Q+, because its key
      is >= 0.
    - For a strictly dominant lambda and w in W, lambda - w lambda is a
      nonnegative combination of positive even roots and lies in the
      root lattice.  The simple roots are a Z-basis of that lattice, so
      lambda - w lambda is in Q+.  Hence the whole orbit lies in
      rho_0 - Q+, and lambda, which lies on no wall, is regular.
    - Conversely, if an accepted orbit, regular and inside rho_0 - Q+,
      meets the box at p, its dominant element mu is strictly dominant
      and mu - p is in Q+ by the same argument.  So mu sits no higher
      than p, and it is in the box itself.

    The result must match the classification: only W rho_0 except for
    gl(n|n), where the representatives are rho_0 - s*xi.
    ResourceLimitError, before anything is enumerated, when the box's
    C(H + r, r) keys (r simple roots) exceed `groups.DEFAULT_CAP`.
    """
    if rs.family not in ("GL", "C"):
        raise DomainError("orbit scans cover the gl and C families only")
    pair = standard_pair(rs, "step2")
    frame = pair.system
    rank = len(frame.simple_roots)
    count = math.comb(max(H + rank, 0), rank)
    if count > DEFAULT_CAP:
        raise ResourceLimitError(
            "the height-%d box of %s has %d keys, over the cap %d"
            % (H, rs.stype.label(), count, DEFAULT_CAP))
    walls = []
    for a in simple_roots(rs.positive_even):
        sign = 1 if form4(a, a) > 0 else -1
        walls.append((sign * form4(frame.rho0, a),
                      [sign * form4(b, a) for b in frame.simple_roots]))
    out = sorted((frame.rho0 - frame.weight(key)
                  for key in _keys_up_to(rank, H)
                  if all(sum(map(mul, key, row)) < base
                         for base, row in walls)),
                 key=coordinate_order)
    expected = expected_regular_orbit_reps(rs, H, pair)
    if out != expected:
        raise StructuralError(
            "regular orbits [%s] do not match the classification [%s]"
            % (", ".join(map(str, out)), ", ".join(map(str, expected))))
    return out


def expected_regular_orbit_reps(rs: RootSystem, H: int = 10,
                                pair: AdmissiblePair | None = None) -> list:
    """The classification regular_orbit_scan must meet, in coordinate order.

    pair is rs's step2 pair, derived here when not given.
    """
    pair = standard_pair(rs, "step2") if pair is None else pair
    rho0 = pair.system.rho0
    if rs.family == "C" or rs.m != rs.n:
        return [rho0]
    xi = xi_vector(pair)
    step = sum(pair.system.cone_key(xi))
    return sorted((rho0 - xi.scale(s) for s in range(H // step + 1)),
                  key=coordinate_order)


def _keys_up_to(rank: int, H: int):
    if rank == 0:
        yield ()
        return
    for first in range(H + 1):
        for rest in _keys_up_to(rank - 1, H - first):
            yield (first,) + rest


def xi_presentation_unique(pair: AdmissiblePair,
                           target: Weight | None = None) -> tuple:
    """Is target (default: sum of S) uniquely a cone combination of Delta+?

    Decided on simple coordinates.  Positive roots have nonnegative
    integer simple coordinates, so a presentation of the target can use a
    root only if the root's support lies in the target's.  Any such root
    beta can carry some mass: for small c > 0, target - c*beta still has
    positive coordinates on the target's support.  S lies in Pi, so when
    no root outside S fits, the only presentation is the target's own
    coordinates.  Hence the presentation is unique with coefficient 1 on
    S iff the target is in the cone, no positive root outside S has its
    support inside the target's, and the target's coordinates are 1 on S.
    Returns (unique, detail).
    """
    frame = pair.system
    target = xi_vector(pair) if target is None else target
    coords = frame.cone(target)
    if coords is None:
        return False, "%s is outside the cone of positive roots" % target
    support = {k for k, c in enumerate(coords) if c}
    fits = [b for b in frame.positive_roots if b not in pair.S
            and all(k in support
                    for k, c in enumerate(positive_step(frame, b)) if c)]
    if fits:
        return False, "%s lies outside S and fits the target's support" \
            % min(fits, key=coordinate_order)
    on_s = [coords[frame.simple_roots.index(b)] for b in pair.S]
    if any(c != 1 for c in on_s):
        return False, "coefficients on S are %s" % ", ".join(map(str, on_s))
    return True, "unique, coefficient 1 on each element of S"


def xi_uniqueness(rs: RootSystem) -> bool:
    if rs.family != "GL" or rs.m != rs.n:
        raise DomainError("xi presentations are a gl(n|n) question")
    ok, _ = xi_presentation_unique(standard_pair(rs, "step2"))
    return ok


def lhs_xi_coefficient(rs: RootSystem, s: int):
    """Coefficient of e^{rho - s*xi} in R e^rho for gl(n|n)."""
    if rs.family != "GL" or rs.m != rs.n:
        raise DomainError("xi coefficients are a gl(n|n) question")
    pair = standard_pair(rs, "step2")
    frame = pair.system
    target = xi_vector(pair).scale(s)
    H = sum(frame.cone_key(target))
    return lhs(pair, H).coefficient_at(frame.rho - target)


# ---------------------------------------------------------------------------
# the rho lemmas

def simple_norms_nonnegative(pair: AdmissiblePair) -> bool:
    return all(form4(a, a) >= 0 for a in pair.system.simple_roots)


def rho_descent_holds(pair: AdmissiblePair) -> bool:
    """rho - w rho lies in the rational positive cone for every w in W#."""
    frame = pair.system
    rho = frame.rho
    return all(frame.cone(rho - w.apply(rho)) is not None
               for w in sharp_group(pair.rs))


def stabilizer_matches_zero_pairing_reflections(pair: AdmissiblePair) -> bool:
    """Stab rho = <s_alpha : alpha positive-square, (alpha, rho) = 0>."""
    rs = pair.rs
    rho = pair.system.rho
    roots = [a for a in sorted(rs.sharp & rs.positive_even,
                               key=coordinate_order)
             if form4(a, rho) == 0]
    generated = enumerate_group(tuple(reflection(a) for a in roots),
                                (rs.m, rs.n))
    return set(generated) == set(stabilizer_elements(pair))


def eps_symmetry_rank(pair: AdmissiblePair) -> int | None:
    """k when Stab rho is exactly the permutations of eps_1..eps_k.

    Returns None when the stabilizer involves sign flips, touches the
    delta block, or is not a full symmetric group on an initial segment.
    """
    stab = stabilizer_elements(pair)
    k = 1
    for w in stab:
        for i, (j, s) in enumerate(w.images):
            if s != 1 or (j != i and i >= w.m):
                return None
            if j != i:
                k = max(k, i + 1, j + 1)
    perms = {tuple(j for j, _ in w.images[:k]) for w in stab}
    if len(stab) != math.factorial(k) or len(perms) != len(stab):
        return None
    return k


def eps_symmetry_expected(rs: RootSystem) -> int:
    return rs.n if rs.m == rs.n else rs.n + 1


def eps_symmetry_applicable(pair: AdmissiblePair) -> bool:
    """Where the stabilizer-is-a-symmetric-group statement is asserted.

    Excluded: C and q (handled separately), D with equal sides (rho = 0,
    the stabilizer is all of W#), and D frames containing the sum root
    eps_m + delta_n (their stabilizer picks up the flip pair on the last
    two eps coordinates).
    """
    rs = pair.rs
    kind = diagram_type(rs.family)
    if kind is None:
        return False
    if kind == "D" and rs.m == rs.n:
        return False
    if rs.family == D_EPS and \
            (rs.eps(rs.m) + rs.delta(rs.n)) in pair.system.simple_roots:
        return False
    return True


# ---------------------------------------------------------------------------
# the classical orbit dichotomy (even root system, its own frame)

def coefficient_box(frame: SimpleSystem, scale=1,
                    offset: Weight | None = None) -> list:
    """offset + scale * mu, mu with simple coordinates in {-1, 0, 1}."""
    base = Weight.zero(frame.m, frame.n) if offset is None else offset
    return [base + frame.weight(tuple(c * scale for c in combo))
            for combo in product((-1, 0, 1), repeat=len(frame.simple_roots))]


def classical_dominant_check(rs: RootSystem) -> bool:
    """Every orbit meets the dominant cone; regular orbits exactly once."""
    group = weyl_group(rs)
    frame = even_frame(rs)
    for lam in coefficient_box(frame):
        orb = orbit(lam, group)
        doms = [mu for mu in orb if is_dominant(mu, frame.simple_roots)]
        if not doms:
            return False
        if len(orb) == len(group) and len(doms) != 1:
            return False
    return True


def classical_dichotomy_check(rs: RootSystem) -> bool:
    """Stabilizers are trivial or contain a reflection."""
    group = weyl_group(rs)
    frame = even_frame(rs)
    reflections = frozenset(reflection(a) for a in rs.even())
    return all(check_stabilizer_dichotomy(lam, group, reflections)
               for lam in coefficient_box(frame)
               + coefficient_box(frame, scale=Q(1, 2)))


def classical_regular_cone_check(rs: RootSystem) -> bool:
    """Regular integral orbits meet rho_0 + (rational cone on simples)."""
    group = weyl_group(rs)
    frame = even_frame(rs)
    for lam in coefficient_box(frame) + coefficient_box(frame,
                                                        offset=frame.rho):
        orb = orbit(lam, group)
        if len(orb) == len(group) and \
                not orbit_intersects_shifted_cone(lam, orb, frame, frame.rho):
            return False
    return True


# ---------------------------------------------------------------------------
# closed-form generator relations

def y_fixed_by(pair: AdmissiblePair, g: SignedPermutation) -> bool:
    """g(Y) = Y as normal forms."""
    return y_shifts_by(pair, g, _zero(pair.rs))


def y_shifts_by(pair: AdmissiblePair, g: SignedPermutation,
                shift: Weight) -> bool:
    """g(Y) = e^{shift} Y as normal forms of one-key sums."""
    frame = pair.system
    denoms = [b.doubled for b in pair.S]
    moved = {(g.apply(frame.rho).doubled,
              tuple(sorted([_gather(g.src, d) for d in denoms]))): 1}
    target = {((frame.rho + shift).doubled, tuple(sorted(denoms))): 1}
    return normalize(moved, frame) == normalize(target, frame)


def partner_map(pair: AdmissiblePair) -> dict:
    """delta index -> (eps index, 'difference' or 'sum') read off S."""
    out = {}
    for beta in pair.S:
        ei, dj, kind = isotropic_parts(beta)
        out[dj] = (ei, kind)
    return out


def partner_products(pair: AdmissiblePair) -> list:
    """The paired transpositions w_i that fix Y in closed form.

    For consecutive delta indices whose S-partners are both differences,
    w_i swaps the deltas and their eps partners simultaneously; when the
    higher partner enters S through a sum, the eps transposition is
    replaced by the flipped one (the plus-root reflection).
    """
    rs = pair.rs
    partners = partner_map(pair)
    out = []
    for j in sorted(partners):
        if j + 1 not in partners:
            continue
        (ei, kind), (ei2, kind2) = partners[j], partners[j + 1]
        if kind != "difference":
            continue
        if kind2 == "sum" and ei2 != ei + 1:
            continue
        eps_root = (rs.eps(ei) + rs.eps(ei2)) if kind2 == "sum" \
            else (rs.eps(ei) - rs.eps(ei2))
        out.append(reflection(eps_root).compose(
            reflection(rs.delta(j) - rs.delta(j + 1))))
    return out


def dropped_denominator_sum_vanishes(pair: AdmissiblePair, beta: Weight,
                                     shift: Weight) -> bool:
    """F(e^{rho+shift} / prod_{S minus beta}) = 0, decided in closed form.

    This is the collapse step: cancelling one denominator of Y leaves an
    alternating sum killed by a sign-reversing pairing on W#.  Times the
    W-invariant D1 it is the alternant of f for S minus beta and exponent
    rho + shift, which is 0 iff St(f) is (`straighten.Numerator`).
    """
    if beta not in pair.S:
        raise DomainError("%s is not in S" % beta)
    rest = [b for b in pair.S if b != beta]
    return not Numerator(pair.system, pair.system.rho + shift, rest).terms

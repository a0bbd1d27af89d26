"""Simple systems, odd reflections and admissible pairs.

The even positive roots are fixed once and for all by the root datum; the
odd positive roots depend on the choice of simple system Pi.  Changing Pi
by the odd reflection at an isotropic simple root beta replaces beta by
-beta in the positive system and shifts rho by beta.  Only derive solves
for simple coordinates; an odd reflection is an integer change of basis,
so it carries the parent's table of root coordinates over instead.  An
admissible pair (S, Pi) consists of a simple system together with a
maximal set of pairwise orthogonal isotropic roots inside it.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import cached_property
from itertools import combinations
from math import gcd, lcm
from operator import add, attrgetter, mul

from .errors import DomainError, ResourceLimitError, StructuralError, ValidationError
from .records import Frozen, _set
from .roots import (C_TAG, D_EPS, Q_TAG, WEYL_TYPES, RootSystem,
                    diagram_type, is_isotropic)
from .weights import (Elimination, Q, Weight, coordinate_order, form4,
                      weight_json)

PAIR_CAP = 10 ** 6

VARIANTS = ("step2", "step3", "step3_prime", "second_class")


class SimpleSystem:
    """A simple system with its derived positive roots and rho data.

    simple_roots come sorted by coordinates.  `_root_steps` maps each
    root's doubled tuple to (step, negative), step being the int simple
    coordinates of the positive one of +-root; derive fills it from its
    solves, odd_reflection from the parent's table.  The elimination of
    the simple roots is built only for a cone or height question:
    `_raw_cone_key` (cone_key and cone wrap it) solves, and `_raw_height`
    reads one height row, several times cheaper than a solve.
    """

    def __init__(self, simple_roots, rs, positive_even, positive_odd,
                 root_steps, solver=None):
        self.simple_roots = tuple(simple_roots)
        self.rs = rs
        self.pos_even = frozenset(positive_even)
        self.pos_odd = frozenset(positive_odd)
        self.positive_roots = self.pos_even | self.pos_odd
        self.rho0 = _half_sum(self.pos_even, rs)
        self.rho1 = _half_sum(self.pos_odd, rs)
        self.rho = self.rho0 - self.rho1
        self._root_steps = root_steps
        if solver is not None:
            self._solver = solver

    @cached_property
    def _solver(self) -> Elimination:
        return Elimination([a.doubled for a in self.simple_roots])

    @property
    def m(self) -> int:
        return self.rs.m

    @property
    def n(self) -> int:
        return self.rs.n

    def key(self) -> tuple:
        return tuple(w.doubled for w in self.simple_roots)

    def __eq__(self, other) -> bool:
        return isinstance(other, SimpleSystem) and self.key() == other.key() \
            and self.rs.family == other.rs.family

    def __hash__(self) -> int:
        return hash(self.key())

    def is_positive_root(self, w: Weight) -> bool:
        return w in self.positive_roots

    @cached_property
    def isotropic_simples(self) -> tuple:
        """The isotropic simple roots, in simple_roots order."""
        return tuple(a for a in self.simple_roots if is_isotropic(a))

    def cone_key(self, w: Weight) -> tuple:
        """Coordinates of a span vector in the simple basis, signs free.

        Integer entries come back as ints, the rest as Fractions; the two
        hash alike, so mixed keys index the same series bucket.
        StructuralError outside the simple-root span.  Each call solves;
        the hot paths call the raw forms below.
        """
        return self._raw_cone_key(w.doubled)

    def _raw_cone_key(self, t: tuple) -> tuple:
        """cone_key of the weight with doubled tuple t.

        The simple roots are independent (derive checks it, and odd
        reflections keep it), so the k-th numerator is the k-th coordinate.
        """
        nums = self._solver.numerators(t)
        if nums is None:
            raise StructuralError("%s is outside the simple-root span"
                                  % Weight(t, self.m))
        return tuple([Q(acc, den) if acc % den else acc // den
                      for acc, den in nums])

    def weight(self, key: tuple) -> Weight:
        """The span vector with these simple coordinates; inverts cone_key.

        Entries are ints or Fractions; the sum runs on ints over their
        common denominator, and StructuralError marks a sum outside
        (1/2)Z.
        """
        den = lcm(*(c.denominator for c in key))
        acc = [0] * (self.m + self.n)
        for c, b in zip(key, self.simple_roots):
            if c:
                s = c.numerator * (den // c.denominator)
                acc = [x + s * y for x, y in zip(acc, b.doubled)]
        if any(x % den for x in acc):
            raise StructuralError("simple coordinates %s leave (1/2)Z"
                                  % (tuple(map(str, key)),))
        return Weight(tuple(x // den for x in acc), self.m)

    def cone(self, w: Weight) -> tuple | None:
        """w's simple coordinates as Fractions if none is negative.

        None when one is negative or w is outside the span: w lies in
        the rational cone of the simple roots exactly when this is not
        None.  The sign is read off the numerators.
        """
        nums = self._solver.numerators(w.doubled)
        if nums is None or any(acc < 0 for acc, _ in nums):
            return None
        return tuple(Q(acc, den) for acc, den in nums)

    @cached_property
    def _height_functional(self) -> tuple:
        """(row, den, null rows): ht(w) = (row . w.doubled) / den.

        row sums the solve's rows over their pivots, so the dot product is
        the sum of the simple coordinates; the null rows vanish exactly on
        the simple-root span (with no simple roots, every unit row does).
        den > 0, so row also orders the coordinates for a diagram
        (`diagrams.from_pair`).  Built on first use, since most frames
        never ask for a height.
        """
        solver = self._solver
        rank, dim = solver.rank, self.m + self.n
        den = lcm(*(d for _, d in solver.transform[:rank]))
        row = [0] * dim
        for coeffs, d in solver.transform[:rank]:
            row = [a + den // d * c for a, c in zip(row, coeffs)]
        g = gcd(den, *row)
        null = [c for c, _ in solver.transform[rank:]] if rank else \
            [Weight.unit(k, self.m, self.n).doubled for k in range(dim)]
        return tuple(v // g for v in row), den // g, tuple(map(tuple, null))

    def _raw_height(self, t: tuple):
        """ht(w), the sum of w's simple coordinates, as an int or Fraction.

        t is w's doubled tuple.  One dot product with the height row, after
        the null rows check the span: StructuralError outside the
        simple-root span, as in cone_key.  Private on purpose: the W#-sum
        cull runs it once per raw key.
        """
        row, den, null = self._height_functional
        for n in null:
            if sum(map(mul, n, t)):
                raise StructuralError("%s is outside the simple-root span"
                                      % Weight(t, self.m))
        num = sum(map(mul, row, t))
        q, r = divmod(num, den)
        return Q(num, den) if r else q

    def to_json(self) -> dict:
        from .roots import root_json
        return {
            "simple_roots": [root_json(a, a in self.rs.odd)
                             for a in self.simple_roots],
            "rho": weight_json(self.rho),
        }


def _half_sum(roots: Iterable[Weight], rs: RootSystem) -> Weight:
    """Half the sum of the roots, summed on their doubled tuples.

    Roots are integral, so every doubled entry of the sum is even.
    """
    total = [0] * (rs.m + rs.n)
    for a in roots:
        total = list(map(add, total, a.doubled))
    if any(v % 2 for v in total):
        raise StructuralError("half the sum of the roots leaves (1/2)Z")
    return Weight(tuple(v // 2 for v in total), rs.m)


def derive(pi: Sequence[Weight], rs: RootSystem, universe: str = "super"
           ) -> SimpleSystem:
    """Build the simple system determined by pi; validates as it goes.

    universe='super' uses all roots; universe='even' restricts to the even
    part (used for plain Lie-algebra frames such as orbit computations).
    One root of each +-pair is classified on the integer numerators of
    its simple coordinates: exactly one of the pair must have them all
    integral and nonnegative.  Those coordinates become the root table.
    """
    pi = tuple(sorted(pi, key=coordinate_order))
    if universe not in ("super", "even"):
        raise StructuralError("unknown universe %r" % universe)
    even_half = rs.positive_even
    odd_universe = rs.odd if universe == "super" else frozenset()
    for a in pi:
        if a not in even_half and -a not in even_half \
                and a not in odd_universe:
            raise ValidationError("%s is not a root of the system" % a)
    solver = Elimination([a.doubled for a in pi])
    if solver.rank != len(pi):
        raise ValidationError("simple roots are linearly dependent")
    # one root of each +- pair: a nonzero doubled tuple is above zero
    # exactly when its first nonzero entry is positive
    zero = (0,) * (rs.m + rs.n)
    odd_half = [a for a in odd_universe if a.doubled > zero]

    def coordinates(a):
        nums = solver.numerators(a.doubled)
        if nums is not None and not any(acc % den for acc, den in nums):
            return [acc // den for acc, den in nums]

    return _classified(pi, rs, (even_half, odd_half), coordinates, solver)


def _classified(pi, rs, halves, coordinates, solver=None) -> SimpleSystem:
    """The system on pi from one root a of each +-pair in halves (even, odd).

    coordinates(a) is a list of ints, or None off the lattice; exactly one
    of +-a must have them all >= 0.  They fill the root table.
    """
    pos, steps = (set(), set()), {}
    for half, bucket in zip(halves, pos):
        for a in half:
            step = coordinates(a)
            plus = step is not None and min(step) >= 0
            minus = step is not None and max(step) <= 0
            if plus == minus:
                raise ValidationError(
                    "not a simple system: %s and its negative are %s the cone"
                    % (a, "both in" if plus else "both outside"))
            if minus:
                a, step = -a, [-v for v in step]
            bucket.add(a)
            step, t = tuple(step), a.doubled
            steps[t], steps[tuple([-v for v in t])] = (step, False), (step, True)
    return SimpleSystem(pi, rs, *pos, steps, solver)


def odd_reflection(sys: SimpleSystem, beta: Weight,
                   systems: dict | None = None) -> SimpleSystem:
    """Odd reflection at an isotropic simple root.

    New simple roots: beta goes to -beta; roots orthogonal to beta stay;
    the rest gain beta.  The positive system changes only by beta -> -beta
    and rho moves to rho + beta.  systems maps SimpleSystem.key() to
    systems already built: the new Pi is looked up there first and
    computed from sys's root table (`_reflected`) only on a miss, never
    solved.  The flip and rho checks run either way, so a system found in
    the map is still checked against this parent.
    """
    if beta not in sys.simple_roots:
        raise DomainError("%s is not a simple root here" % beta)
    if not is_isotropic(beta):
        raise DomainError("%s is not isotropic" % beta)
    new_pi = [-a if a == beta else a + beta if form4(a, beta) else a
              for a in sys.simple_roots]
    key = tuple(a.doubled for a in sorted(new_pi, key=coordinate_order))
    out = systems.get(key) if systems else None
    if out is None:
        out = _reflected(sys, beta, new_pi)
    expected = (sys.positive_roots - {beta}) | {-beta}
    if out.positive_roots != expected:
        raise StructuralError("odd reflection did not flip exactly %s" % beta)
    if out.rho != sys.rho + beta:
        raise StructuralError("rho did not shift by %s" % beta)
    return out


def _reflected(sys: SimpleSystem, beta: Weight, new_pi: list) -> SimpleSystem:
    """The system on new_pi, the images of Pi in order, from sys's table.

    As a = (a + beta) + (-beta) and beta = -(-beta), a root keeps its
    coordinates but at beta's place b, which becomes the sum at the places
    where a gained beta minus the one at b.  That change of basis is the
    identity but for row b, whose diagonal entry is -1; its determinant
    is -1, so new_pi is independent and the coordinates stay ints.  Each
    step must rebuild its root under t -> sum 9^k t_k, one-to-one on the
    doubled tuples of roots (entries in [-4, 4]): a wrong or negated
    entry in the table, or two swapped, is a StructuralError.
    """
    old, roots = sys.simple_roots, sys._root_steps
    b = old.index(beta)
    bent = [i for i, a in enumerate(old) if i != b and new_pi[i] != a]
    for i in bent:
        if new_pi[i].doubled not in roots:
            raise ValidationError("%s is not a root of the system" % new_pi[i])
    order = sorted(range(len(old)), key=lambda i: new_pi[i].doubled)
    nines = [9 ** k for k in range(sys.m + sys.n)]
    sums = [sum(map(mul, new_pi[i].doubled, nines)) for i in order]

    def coordinates(a):
        c, negative = roots[a.doubled]
        c = c[:b] + (sum([c[i] for i in bent]) - c[b],) + c[b + 1:]
        step = [-c[i] if negative else c[i] for i in order]
        if sum(map(mul, step, sums)) != sum(map(mul, a.doubled, nines)):
            raise StructuralError("the root table misplaces %s" % a)
        return step

    return _classified([new_pi[i] for i in order], sys.rs,
                       (sys.pos_even, sys.pos_odd), coordinates)


class AdmissiblePair(Frozen):
    """A simple system together with its chosen maximal isotropic S."""

    __slots__ = ("S", "system")
    _key = attrgetter(*__slots__)

    def __init__(self, S: tuple, system: SimpleSystem):
        _set(self, "S", S)
        _set(self, "system", system)

    @property
    def rs(self) -> RootSystem:
        return self.system.rs

    def key(self) -> tuple:
        return (tuple(sorted(w.doubled for w in self.S)), self.system.key())

    def to_json(self) -> dict:
        idx = {a: i for i, a in enumerate(self.system.simple_roots)}
        return {
            "S": [idx[b] for b in sorted(self.S, key=coordinate_order)],
            "system": self.system.to_json(),
        }


def is_admissible(S: Sequence[Weight], sys: SimpleSystem) -> tuple:
    """(ok, reason).  S must be a maximal orthogonal isotropic subset of Pi."""
    rs = sys.rs
    if sys.pos_even != rs.positive_even:
        return False, "positive even roots differ from the fixed ones"
    if len(set(S)) != len(S):
        return False, "S has repeats"
    if len(S) != rs.defect:
        return False, "S has size %d, defect is %d" % (len(S), rs.defect)
    for b in S:
        if b not in sys.simple_roots:
            return False, "%s is not simple here" % b
        if not is_isotropic(b):
            return False, "%s is not isotropic" % b
    for a, b in combinations(S, 2):
        if form4(a, b) != 0:
            return False, "%s and %s are not orthogonal" % (a, b)
    return True, None


def make_pair(S: Sequence[Weight], sys: SimpleSystem) -> AdmissiblePair:
    S = tuple(sorted(S, key=coordinate_order))
    ok, reason = is_admissible(S, sys)
    if not ok:
        raise ValidationError("pair is not admissible: %s" % reason)
    return AdmissiblePair(S, sys)


def pair_odd_reflection(pair: AdmissiblePair, beta: Weight,
                        systems: dict | None = None) -> AdmissiblePair:
    """Move the whole pair by the odd reflection at beta in S.

    systems is passed on to odd_reflection.
    """
    if beta not in pair.S:
        raise DomainError("%s is not in S" % beta)
    sys2 = odd_reflection(pair.system, beta, systems)
    new_S = [-b if b == beta else b for b in pair.S]
    return make_pair(new_S, sys2)


def second_type_move(pair: AdmissiblePair, gamma: Weight, gamma_prime: Weight
                     ) -> AdmissiblePair:
    """Exchange gamma in S for another isotropic simple root gamma'.

    Hypotheses: gamma + gamma' lies in Delta#, and gamma' is orthogonal to
    every other element of S.  Pi is unchanged, so both pairs expand in the
    same frame and the alternating sums agree; callers may verify that.
    """
    sys = pair.system
    if gamma not in pair.S:
        raise DomainError("%s is not in S" % gamma)
    if gamma_prime not in sys.simple_roots:
        raise DomainError("%s is not a simple root" % gamma_prime)
    if not is_isotropic(gamma_prime):
        raise DomainError("%s is not isotropic" % gamma_prime)
    if (gamma + gamma_prime) not in pair.rs.sharp:
        raise DomainError("%s + %s does not lie in Delta#" % (gamma, gamma_prime))
    for b in pair.S:
        if b != gamma and form4(b, gamma_prime) != 0:
            raise DomainError("%s is not orthogonal to %s" % (gamma_prime, b))
    new_S = [gamma_prime if b == gamma else b for b in pair.S]
    return make_pair(new_S, sys)


def isotropic_parts(beta: Weight) -> tuple:
    """(i, j, kind) for beta = +-(eps_i - delta_j) or +-(eps_i + delta_j).

    i and j are 1-based; kind is 'difference' or 'sum'.
    """
    doubled = beta.doubled
    hits = [k for k, v in enumerate(doubled) if v]
    if len(hits) != 2 or not hits[0] < beta.m <= hits[1]:
        raise DomainError("%s is not of the form +-eps_i +- delta_j" % beta)
    e, d = hits
    kind = "sum" if doubled[e] * doubled[d] > 0 else "difference"
    return e + 1, d - beta.m + 1, kind


def second_type_moves(pair: AdmissiblePair, same_kind_only: bool = False) -> list:
    """All applicable (gamma, gamma_prime) choices for this pair.

    With same_kind_only the exchange must keep the difference/sum kind of
    the replaced root unless gamma + gamma_prime is a long sharp root of
    norm 4 (the 2*eps normalisation); that is exactly the reach of the
    bow moves on diagrams.  The unrestricted list still yields equal
    alternating sums.
    """
    out = []
    for gamma in pair.S:
        for gp in pair.system.isotropic_simples:
            if gp in pair.S:
                continue
            alpha = gamma + gp
            if alpha not in pair.rs.sharp:
                continue
            if any(form4(b, gp) != 0 for b in pair.S if b != gamma):
                continue
            if same_kind_only \
                    and isotropic_parts(gamma)[2] != isotropic_parts(gp)[2] \
                    and form4(alpha, alpha) != 16:
                continue
            out.append((gamma, gp))
    return out


# ---------------------------------------------------------------------------
# standard pairs

def standard_pair(rs: RootSystem, variant: str = "step3") -> AdmissiblePair:
    """Distinguished admissible pairs used as seeds and fixtures.

    Each variant is a diagram word read by pair_from_word; k = m - n.
    'step2' is a^k (b⌣a)^n, or (a⌣b)^n on B(n,n); 'step3' is
    (a⌣b)^n a^k, and step2 on gl.  'step3_prime', a⌢b (a⌣b)^(n-1) a^k,
    and 'second_class', a⌢b a^k (b⌣a)^(n-1), lie in the second
    equivalence class, which exists only for D with more eps than delta.
    C is no diagram family: its pair is built by hand.
    """
    if variant not in VARIANTS:
        raise DomainError("unknown variant %r" % variant)
    fam, m, n = rs.family, rs.m, rs.n
    second = fam == D_EPS and m > n >= 1
    if variant == "second_class" and not second:
        raise DomainError("the second class exists only for D with m > n >= 1")
    if fam == Q_TAG:
        raise DomainError("Q(n) has no admissible pairs; use the qn helpers")
    if variant == "step3_prime" and not second:
        raise DomainError("step3_prime needs D with m > n >= 1")
    if fam == C_TAG:
        e, d = rs.eps, rs.delta(1)
        pi = [e(i) - e(i + 1) for i in range(1, m)] + [e(m) - d, e(m) + d]
        return make_pair([e(m) - d], derive(pi, rs))
    if fam == D_EPS and m < 2:
        raise DomainError("no simple system for D with a single eps")
    k, kind = m - n, diagram_type(fam)
    if variant == "second_class":
        word = "a⌢b" + "a" * k + "b⌣a" * (n - 1)
    elif variant == "step3_prime":
        word = "a⌢b" + "a⌣b" * (n - 1) + "a" * k
    elif variant == "step3" and kind != "A" or kind == "B" and k == 0:
        word = "a⌣b" * n + "a" * k
    else:
        word = "a" * k + "b⌣a" * n
    return pair_from_word(rs, word)


def variants(rs: RootSystem) -> list:
    """The standard variants of the system, the ones verify runs.

    step2 always; step3 for B and D; step3_prime and second_class for D
    with m > n >= 1.  On gl and C, step3 gives the step2 pair and is left
    out.  Listed variants can still coincide: step3 is step2 when n = 0
    and on B(n,n), and step3_prime is second_class when n = 1;
    `standard_pairs` keeps only the first of such a repeat.
    """
    names = ["step2"]
    if diagram_type(rs.family) in ("B", "D"):
        names.append("step3")
    if rs.family == D_EPS and rs.n >= 1:
        names += ["step3_prime", "second_class"]
    return names


def standard_pairs(rs: RootSystem) -> list:
    """(variant, pair) for each distinct pair of the standard variants.

    A variant whose pair equals an earlier variant's is dropped, so each
    pair is listed once, under the first name.
    """
    out = {}
    for name in variants(rs):
        pair = standard_pair(rs, name)
        out.setdefault(pair.key(), (name, pair))
    return list(out.values())


def pair_from_word(rs: RootSystem, word: str) -> AdmissiblePair:
    """The gl/B/D admissible pair drawn by a diagram word.

    The word lists the marks in increasing order of the functional f:
    `a` for an eps coordinate, `b` for a delta one, eps_1 at the last a
    and delta_1 at the last b.  ⌣ bows its two neighbours by their
    difference, ⌢ by their sum; the sign making the root positive is
    taken.  The values of f are pinned by the family: consecutive
    integers from 1 for gl and B; for D, integers from 0 when a coordinate
    sits at zero (a frown, or the lowest mark on the block of type D in
    `WEYL_TYPES`) and half-integers when the lowest mark is on the block
    of type C.  Pi is the roots where f is 1, decided on ints: the
    doubled ladder dotted with a root's doubled tuple is 4.  A ladder
    that gives no admissible pair is a DomainError.
    """
    marks = [c for c in word if c in "ab"]
    size = len(marks)
    if diagram_type(rs.family) in ("A", "B"):
        ladder = range(2, 2 * size + 2, 2)
    elif "⌢" in word or WEYL_TYPES[rs.family]["ab".index(marks[0])] == "D":
        ladder = range(0, 2 * size, 2)
    else:
        ladder = range(1, 2 * size, 2)
    order = [p for p in reversed(range(size)) if marks[p] == "a"] \
        + [p for p in reversed(range(size)) if marks[p] == "b"]
    at = {p: Weight.unit(k, rs.m, rs.n) for k, p in enumerate(order)}
    bows, p = [], -1
    for c in word:
        if c in "ab":
            p += 1
        else:
            u, v = at[p], at[p + 1]
            bows.append(v + u if c == "⌢" else v - u)
    x = [ladder[p] for p in order]
    pi = [a for a in rs.all_roots() if sum(map(mul, x, a.doubled)) == 4]
    try:
        sys = derive(pi, rs)
        return make_pair([b if sys.is_positive_root(b) else -b
                          for b in bows], sys)
    except (ValidationError, DomainError):
        raise DomainError(
            "no functional ladder reconstructs this diagram") from None


# ---------------------------------------------------------------------------
# enumeration

def enumerate_simple_systems(rs: RootSystem, cap: int = PAIR_CAP) -> list:
    """All simple systems sharing the fixed even positive roots.

    Breadth-first closure under odd reflections from the standard seed;
    even reflections are excluded because the even positive part is fixed.
    Each reflection looks its target up among the systems already found,
    so only the seed is derived and every other system is computed once
    from a parent's table; every edge is still checked.
    """
    if rs.family == "Q":
        raise DomainError("Q(n) simple systems are not enumerated here")
    seed = standard_pair(rs, "step2").system
    seen = {seed.key(): seed}
    frontier = [seed]
    while frontier:
        nxt = []
        for sys in frontier:
            for beta in sys.isotropic_simples:
                out = odd_reflection(sys, beta, seen)
                if out.key() not in seen:
                    seen[out.key()] = out
                    nxt.append(out)
                    if len(seen) > cap:
                        raise ResourceLimitError(
                            "simple-system enumeration exceeded cap %d" % cap)
        frontier = nxt
    return [seen[k] for k in sorted(seen)]


def enumerate_admissible_pairs(rs: RootSystem, cap: int = PAIR_CAP) -> list:
    """All admissible pairs over all simple systems."""
    out = []
    for sys in enumerate_simple_systems(rs, cap):
        for S in orthogonal_subsets(sys.isotropic_simples, rs.defect):
            out.append(make_pair(S, sys))
            if len(out) > cap:
                raise ResourceLimitError(
                    "pair enumeration exceeded cap %d" % cap)
    return out


def orthogonal_subsets(roots: Iterable[Weight], size: int) -> list:
    """The pairwise-orthogonal size-subsets of roots.

    They come in `combinations` order over the roots sorted by coordinates.
    """
    return [S for S in combinations(sorted(roots, key=coordinate_order), size)
            if all(form4(a, b) == 0 for a, b in combinations(S, 2))]


def pair_neighbors(pair: AdmissiblePair, same_kind_only: bool = False,
                   systems: dict | None = None) -> list:
    """Pairs reachable by one move (odd reflection in S or exchange move).

    systems is passed on to odd_reflection.
    """
    out = [pair_odd_reflection(pair, b, systems) for b in pair.S]
    out += [second_type_move(pair, g, gp)
            for g, gp in second_type_moves(pair, same_kind_only)]
    return out


def pair_components(pairs: Sequence[AdmissiblePair],
                    same_kind_only: bool = False) -> list:
    """Connected components of the move graph on the given pairs.

    Odd reflections look their targets up among the pairs' systems, so a
    system is computed only when a move leaves them; every move is still
    checked, and a move that leaves the given pairs is a StructuralError.
    """
    index = {p.key(): i for i, p in enumerate(pairs)}
    systems = {p.system.key(): p.system for p in pairs}
    seen = set()
    comps = []
    for p in pairs:
        if p.key() in seen:
            continue
        comp = []
        stack = [p]
        seen.add(p.key())
        while stack:
            cur = stack.pop()
            comp.append(cur)
            for nb in pair_neighbors(cur, same_kind_only, systems):
                k = nb.key()
                if k not in index:
                    raise StructuralError("move left the enumerated pair set")
                if k not in seen:
                    seen.add(k)
                    stack.append(nb)
        comps.append(sorted(comp, key=lambda q: q.key()))
    return comps


def even_frame(rs: RootSystem) -> SimpleSystem:
    """The even root system as its own frame (odd part ignored)."""
    from .roots import simple_roots
    return derive(simple_roots(rs.positive_even), rs, universe="even")

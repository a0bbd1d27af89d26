from fractions import Fraction as Q
from itertools import product

import pytest

from superdenom.errors import DomainError, StructuralError, ValidationError
from superdenom.groups import sharp_group
from superdenom.roots import SuperType, build
from superdenom import simple
from superdenom.simple import (SimpleSystem, derive, enumerate_admissible_pairs,
                               enumerate_simple_systems, even_frame,
                               is_admissible, isotropic_parts,
                               odd_reflection, pair_components,
                               pair_neighbors, pair_odd_reflection,
                               second_type_move, second_type_moves,
                               standard_pair,
                               standard_pairs)
from superdenom.weights import Weight, bilinear_form


def test_derive_gl_2_1():
    rs = build(SuperType("GL", 2, 1))
    e1, e2, d1 = rs.eps(1), rs.eps(2), rs.delta(1)
    sys = derive([d1 - e2, e1 - d1], rs)
    assert set(sys.simple_roots) == {d1 - e2, e1 - d1}
    assert sys.pos_even == {e1 - e2}
    assert sys.pos_odd == {e1 - d1, d1 - e2}
    assert sys.rho == Weight.zero(2, 1)


def test_derive_rejects_non_simple_sets():
    rs = build(SuperType("GL", 2, 1))
    e1, e2, d1 = rs.eps(1), rs.eps(2), rs.delta(1)
    with pytest.raises(ValidationError):
        derive([e1 - e2, e1 - d1, d1 - e2], rs)   # dependent set
    with pytest.raises(ValidationError):
        derive([e1 - e2], rs)                      # wrong size
    with pytest.raises(ValidationError):
        derive([e1 - e2, e1 + d1], rs)             # not a root


def test_derive_classifies_on_signs_and_the_lattice():
    # e1 - e2 has integer simple coordinates (1, -1) over B(2)'s short roots
    b = build(SuperType("B", 2, 0))
    with pytest.raises(ValidationError, match="both outside"):
        derive([b.eps(1), b.eps(2)], b)
    # over [-2*e1, e1 - d1] every root of B(1,1) on the C# side has simple
    # coordinates of one sign, but e1 = -(1/2)(-2*e1) is off the lattice
    c = build(SuperType("B", 1, 1, sharp_choice="C_side"))
    e1, d1 = c.eps(1), c.delta(1)
    with pytest.raises(ValidationError, match="both outside"):
        derive([e1.scale(-2), e1 - d1], c)
    with pytest.raises(StructuralError):
        derive([b.eps(1), b.eps(2)], b, universe="odd")


def test_rho_of_standard_pairs_pairs_with_simples():
    # (rho, alpha) = (alpha, alpha)/2 for every simple root
    for st in [SuperType("GL", 3, 2), SuperType("B", 2, 2),
               SuperType("D", 2, 1), SuperType("D", 1, 2),
               SuperType("C", n=3)]:
        pair = standard_pair(build(st), "step2")
        sys = pair.system
        for a in sys.simple_roots:
            assert bilinear_form(sys.rho, a) == Q(bilinear_form(a, a), 2)


def test_weight_inverts_cone_key():
    frames = [standard_pair(build(st), "step2").system
              for st in (SuperType("GL", 3, 2), SuperType("B", 2, 2),
                         SuperType("D", 2, 1), SuperType("C", n=3))]
    frames.append(even_frame(build(SuperType("B", 2, 1))))
    for frame in frames:
        for w in frame.positive_roots:
            assert frame.weight(frame.cone_key(w)) == w
            assert frame.weight(frame.cone_key(-w)) == -w
        zero = Weight.zero(frame.m, frame.n)
        assert frame.weight(frame.cone_key(zero)) == zero
        # rational keys: halves of roots, summed over a common denominator
        halves = [w.scale(Q(1, 2)) for w in frame.positive_roots]
        assert any(type(c) is Q for h in halves for c in frame.cone_key(h))
        for h in halves:
            assert frame.weight(frame.cone_key(h)) == h
        with pytest.raises(StructuralError, match="leave"):
            frame.weight((Q(1, 8),) + (0,) * (len(frame.simple_roots) - 1))


def test_odd_reflection_moves_rho_by_beta():
    rs = build(SuperType("GL", 2, 2))
    sys = standard_pair(rs, "step2").system
    for beta in sys.isotropic_simples:
        flipped = odd_reflection(sys, beta)
        assert flipped.rho == sys.rho + beta
        assert -beta in flipped.simple_roots
        # reflecting back returns the original system
        assert odd_reflection(flipped, -beta) == sys


def test_odd_reflection_requires_isotropic_simple():
    rs = build(SuperType("B", 2, 1))
    sys = standard_pair(rs, "step2").system
    even = next(a for a in sys.simple_roots if bilinear_form(a, a) != 0)
    with pytest.raises(DomainError):
        odd_reflection(sys, even)


def test_admissibility_checks():
    rs = build(SuperType("GL", 2, 2))
    pair = standard_pair(rs, "step2")
    ok, why = is_admissible(pair.S, pair.system)
    assert ok, why
    # S must consist of simple roots of Pi
    e1, d2 = rs.eps(1), rs.delta(2)
    bad, why = is_admissible([e1 - d2], pair.system)
    assert not bad


def test_standard_pair_shapes():
    rs = build(SuperType("GL", 3, 2))
    p2 = standard_pair(rs, "step2")
    e = rs.eps
    d = rs.delta
    assert set(p2.S) == {e(1) - d(1), e(2) - d(2)}
    p3 = standard_pair(rs, "step3")
    assert p3 == p2   # one distinguished pair for gl
    b = build(SuperType("B", 3, 2))
    q3 = standard_pair(b, "step3")
    assert set(q3.S) == {d(1) - e(2), d(2) - e(3)}
    dd = build(SuperType("D", 3, 2))
    prime = standard_pair(dd, "step3_prime")
    assert set(prime.S) == {d(1) - e(2), e(3) + d(2)}
    with pytest.raises(DomainError):
        standard_pair(rs, "step3_prime")   # D-only variant
    with pytest.raises(DomainError):
        standard_pair(build(SuperType("Q", n=3)), "step2")


def test_second_class_pair_d_eps():
    rs = build(SuperType("D", 3, 2))
    pair = standard_pair(rs, "second_class")
    e, d = rs.eps, rs.delta
    assert set(pair.S) == {e(1) - d(1), e(3) + d(2)}
    assert e(3) + d(2) in pair.system.simple_roots
    assert d(2) - e(3) in pair.system.simple_roots
    with pytest.raises(DomainError):
        standard_pair(build(SuperType("D", 2, 3)), "second_class")


def test_pair_odd_reflection_keeps_admissibility():
    rs = build(SuperType("D", 2, 1))
    pair = standard_pair(rs, "step2")
    for beta in pair.S:
        moved = pair_odd_reflection(pair, beta)
        assert -beta in moved.S
        ok, why = is_admissible(moved.S, moved.system)
        assert ok, why


def test_isotropic_parts():
    rs = build(SuperType("D", 2, 1))
    e, d = rs.eps, rs.delta
    assert isotropic_parts(e(1) - d(1)) == (1, 1, "difference")
    assert isotropic_parts(d(1) - e(2)) == (2, 1, "difference")
    assert isotropic_parts(e(2) + d(1)) == (2, 1, "sum")
    assert isotropic_parts(-e(2) - d(1)) == (2, 1, "sum")
    with pytest.raises(DomainError):
        isotropic_parts(e(1) - e(2))
    # every isotropic root of the fixture systems is +-(eps_i -+ delta_j)
    for st in [SuperType("GL", 2, 1), SuperType("GL", 3, 2),
               SuperType("B", 2, 1), SuperType("B", 1, 2),
               SuperType("D", 2, 1), SuperType("D", 3, 2),
               SuperType("C", n=3)]:
        rs = build(st)
        isotropic = [b for b in rs.odd if bilinear_form(b, b) == 0]
        assert isotropic
        for beta in isotropic:
            i, j, kind = isotropic_parts(beta)
            root = rs.eps(i) + rs.delta(j) if kind == "sum" \
                else rs.eps(i) - rs.delta(j)
            assert beta in (root, -root)


def test_second_type_move_requires_hypotheses():
    rs = build(SuperType("GL", 2, 1))
    pair = standard_pair(rs, "step2")
    moves = second_type_moves(pair)
    assert moves
    for gamma, gp in moves:
        moved = second_type_move(pair, gamma, gp)
        assert gp in moved.S and gamma not in moved.S
        assert moved.system == pair.system
    e, d = rs.eps, rs.delta
    with pytest.raises(DomainError):
        second_type_move(pair, e(1) + d(1), e(1) - d(1))


def test_kind_restricted_moves_subset():
    rs = build(SuperType("D", 2, 1))
    for pair in enumerate_admissible_pairs(rs):
        allm = set(second_type_moves(pair))
        kept = set(second_type_moves(pair, same_kind_only=True))
        assert kept <= allm
        for g, gp in allm - kept:
            # only short-alpha kind-changing exchanges are filtered out
            alpha = g + gp
            assert isotropic_parts(g)[2] != isotropic_parts(gp)[2]
            assert bilinear_form(alpha, alpha) != 4


def test_enumeration_counts():
    expected = {
        ("GL", 1, 1): 2, ("GL", 2, 1): 4, ("GL", 2, 2): 4,
        ("GL", 3, 1): 6, ("GL", 3, 2): 12, ("GL", 3, 3): 8,
        ("B", 2, 1): 4, ("B", 3, 2): 12,
        ("D", 2, 1): 6, ("D", 1, 2): 8,
    }
    for (fam, m, n), count in expected.items():
        rs = build(SuperType(fam, m, n))
        pairs = enumerate_admissible_pairs(rs)
        assert len(pairs) == count, (fam, m, n, len(pairs))
        assert len({p.key() for p in pairs}) == count


def test_pi_determined_by_s():
    for st in [SuperType("GL", 3, 2), SuperType("B", 2, 2),
               SuperType("D", 2, 1), SuperType("D", 2, 2)]:
        rs = build(st)
        by_s = {}
        for p in enumerate_admissible_pairs(rs):
            key = frozenset(b.coords() for b in p.S)
            by_s.setdefault(key, set()).add(p.system.key())
        assert all(len(v) == 1 for v in by_s.values())


def test_components_full_vs_diagram_moves():
    # unrestricted moves merge the two D(2,1) classes; bow moves keep them apart
    rs = build(SuperType("D", 2, 1))
    pairs = enumerate_admissible_pairs(rs)
    assert len(pair_components(pairs)) == 1
    assert len(pair_components(pairs, same_kind_only=True)) == 2
    gl = build(SuperType("GL", 2, 2))
    glp = enumerate_admissible_pairs(gl)
    assert len(pair_components(glp)) == 1
    assert len(pair_components(glp, same_kind_only=True)) == 1


def test_neighbors_stay_admissible():
    rs = build(SuperType("B", 2, 2))
    for pair in enumerate_admissible_pairs(rs):
        for nb in pair_neighbors(pair):
            ok, why = is_admissible(nb.S, nb.system)
            assert ok, why


def test_derive_refuses_pi_without_a_functional():
    # a Pi with no functional f (<f, Pi> = 1, f >= 1 on Delta+) is
    # refused by derive before any frame exists.  No case has a positive
    # set that disagrees with its Pi (e2 - e1 positive, or e2 among the
    # roots): derive and odd reflections classify every root from Pi
    # itself, so only a hand-built SimpleSystem could carry one.
    rs = build(SuperType("GL", 2, 1))
    e1, d1 = rs.eps(1), rs.delta(1)
    with pytest.raises(ValidationError, match="linearly dependent"):
        derive([e1 - d1, d1 - e1], rs)
    with pytest.raises(ValidationError,
                       match="e1 - e2 and its negative are both outside"):
        derive([e1 - d1], rs)
    b = build(SuperType("B", 1, 1, sharp_choice="C_side"))
    with pytest.raises(ValidationError,
                       match="d1 and its negative are both outside"):
        derive([b.eps(1).scale(-2), b.delta(1) - b.eps(1)], b)


def test_odd_reflection_post_checks_can_fail(monkeypatch):
    rs = build(SuperType("GL", 2, 2))
    sys = standard_pair(rs, "step2").system
    beta = sys.isotropic_simples[0]
    real = simple._reflected
    monkeypatch.setattr(simple, "_reflected", lambda sys, beta, pi: sys)
    with pytest.raises(StructuralError, match="did not flip"):
        odd_reflection(sys, beta)

    def shifted(sys, beta, pi):
        out = real(sys, beta, pi)
        out.rho = out.rho + beta
        return out

    monkeypatch.setattr(simple, "_reflected", shifted)
    with pytest.raises(StructuralError, match="rho did not shift"):
        odd_reflection(sys, beta)


def test_odd_reflection_post_checks_fire_on_a_hit():
    rs = build(SuperType("GL", 2, 2))
    sys = standard_pair(rs, "step2").system
    beta = sys.isotropic_simples[0]
    reflected = odd_reflection(sys, beta)
    key = reflected.key()
    with pytest.raises(StructuralError, match="did not flip"):
        odd_reflection(sys, beta, {key: sys})
    shifted = derive(reflected.simple_roots, rs)
    shifted.rho = shifted.rho + beta
    with pytest.raises(StructuralError, match="rho did not shift"):
        odd_reflection(sys, beta, {key: shifted})


@pytest.mark.parametrize("stype", [
    SuperType("GL", 3, 3), SuperType("GL", 4, 2), SuperType("B", 3, 2),
    SuperType("B", 2, 2, sharp_choice="B_side"),
    SuperType("B", 2, 2, sharp_choice="C_side"), SuperType("D", 4, 2),
    SuperType("D", 3, 3), SuperType("C", n=3)])
def test_reflected_systems_equal_their_derive(stype):
    rs = build(stype)
    systems = enumerate_simple_systems(rs)
    assert _same_systems(systems, [derive(s.simple_roots, rs) for s in systems])


def _with_table(sys, table):
    return SimpleSystem(sys.simple_roots, sys.rs, sys.pos_even, sys.pos_odd,
                        table)


@pytest.mark.parametrize("stype", [
    SuperType("GL", 3, 2), SuperType("B", 2, 2, sharp_choice="C_side"),
    SuperType("D", 3, 2)])
def test_reflection_rejects_a_wrong_parent_table(stype):
    # one wrong coordinate, a negated step, a flipped sign flag, two
    # different coordinates swapped, or a missing root: each must raise
    rs = build(stype)
    sys = standard_pair(rs, "step2").system
    beta = sys.isotropic_simples[0]
    assert odd_reflection(_with_table(sys, dict(sys._root_steps)), beta) \
        == odd_reflection(sys, beta)
    mutants = []
    for a in sys.positive_roots:
        step = sys._root_steps[a.doubled][0]
        for k in range(len(step)):
            for d in (1, -1):
                mutants.append((a, step[:k] + (step[k] + d,) + step[k + 1:],
                                False))
            for j in range(k):
                if step[j] != step[k]:
                    swapped = list(step)
                    swapped[j], swapped[k] = step[k], step[j]
                    mutants.append((a, tuple(swapped), False))
        mutants += [(a, tuple(-c for c in step), False), (a, step, True)]
    for a, step, negative in mutants:
        table = dict(sys._root_steps)
        table[a.doubled] = (step, negative)
        with pytest.raises((StructuralError, ValidationError)):
            odd_reflection(_with_table(sys, table), beta)
    bent = [a + beta for a in sys.simple_roots
            if a != beta and bilinear_form(a, beta) != 0]
    assert bent
    for root in bent:
        table = dict(sys._root_steps)
        del table[root.doubled]
        with pytest.raises(ValidationError, match="is not a root"):
            odd_reflection(_with_table(sys, table), beta)


def _counter(monkeypatch, name: str) -> list:
    """Count calls of simple.<name> from here on; returns the live counter."""
    calls = []
    real = getattr(simple, name)
    monkeypatch.setattr(simple, name, lambda *a: calls.append(a) or real(*a))
    return calls


def _derive_every_edge(monkeypatch) -> None:
    """Make odd_reflection ignore its map, so every edge is computed afresh."""
    real = simple.odd_reflection
    monkeypatch.setattr(simple, "odd_reflection",
                        lambda sys, beta, systems=None: real(sys, beta))


def _same_systems(a, b) -> bool:
    return [(s.key(), s.positive_roots, s.rho, s._root_steps) for s in a] \
        == [(s.key(), s.positive_roots, s.rho, s._root_steps) for s in b]


def test_enumeration_derives_each_system_once(monkeypatch):
    # the seed is derived; every other system is one reflection step
    rs = build(SuperType("GL", 4, 4))
    derived = _counter(monkeypatch, "derive")
    reflected = _counter(monkeypatch, "_reflected")
    systems = enumerate_simple_systems(rs)
    assert len(systems) == 70
    assert len(derived) == 1 and len(reflected) == len(systems) - 1
    _derive_every_edge(monkeypatch)
    del derived[:], reflected[:]
    assert _same_systems(enumerate_simple_systems(rs), systems)
    assert len(derived) == 1 and len(reflected) > len(systems)


def test_enumeration_builds_one_elimination(monkeypatch):
    # only the seed's derive solves; reflected frames build theirs on the
    # first cone or height question
    rs = build(SuperType("GL", 4, 4))
    seed = [a.doubled for a in standard_pair(rs, "step2").system.simple_roots]
    built = _counter(monkeypatch, "Elimination")
    systems = enumerate_simple_systems(rs)
    assert len(systems) == 70 and built == [(seed,)]
    frame = next(s for s in systems if s.key() != tuple(seed))
    root = next(iter(frame.positive_roots))
    step = frame._root_steps[root.doubled][0]
    assert frame._raw_height(root.doubled) == sum(step) and len(built) == 2
    assert frame.cone(root) == step and len(built) == 2


def test_pair_components_derive_nothing_the_pairs_carry(monkeypatch):
    rs = build(SuperType("D", 4, 2))
    pairs = enumerate_admissible_pairs(rs)
    derived = _counter(monkeypatch, "derive")
    reflected = _counter(monkeypatch, "_reflected")
    comps = pair_components(pairs, same_kind_only=True)
    assert derived == [] and reflected == []
    _derive_every_edge(monkeypatch)
    assert enumerate_admissible_pairs(rs) == pairs
    del derived[:], reflected[:]
    fresh = pair_components(pairs, same_kind_only=True)
    assert derived == []
    assert len(reflected) > len({p.system.key() for p in pairs})
    assert [[p.key() for p in c] for c in fresh] \
        == [[p.key() for p in c] for c in comps]
    assert all(_same_systems([p.system for p in c], [q.system for q in d])
               for c, d in zip(fresh, comps))


def test_pair_components_reject_a_move_off_the_given_pairs():
    pairs = enumerate_admissible_pairs(build(SuperType("GL", 2, 2)))
    with pytest.raises(StructuralError,
                       match="move left the enumerated pair set"):
        pair_components(pairs[1:])


def test_even_frame():
    rs = build(SuperType("B", 2, 1))
    frame = even_frame(rs)
    assert frame.pos_even == rs.positive_even
    assert not frame.pos_odd
    assert frame.rho == frame.rho0


def test_enumerate_simple_systems_closure():
    rs = build(SuperType("GL", 2, 2))
    systems = enumerate_simple_systems(rs)
    assert len(systems) == 6   # six choices of Delta_+ over the fixed evens
    for sys in systems:
        assert sys.pos_even == rs.positive_even
        for beta in sys.isotropic_simples:
            assert odd_reflection(sys, beta) in systems


@pytest.mark.parametrize("stype", [
    SuperType("GL", 3, 2), SuperType("GL", 2, 2), SuperType("B", 2, 2),
    SuperType("B", 2, 1), SuperType("D", 3, 2), SuperType("D", 2, 1),
    SuperType("C", n=3)])
def test_height_functional_sums_the_simple_coordinates(stype):
    rs = build(stype)
    for _, pair in standard_pairs(rs):
        frame = pair.system
        rho = frame.rho
        weights = list(rs.all_roots()) + [rho - w.apply(rho)
                                          for w in sharp_group(rs)]
        for w in weights:
            t = w.doubled
            assert frame._raw_height(t) == sum(frame._raw_cone_key(t))
    even = even_frame(rs)
    for a in rs.positive_even:
        t = a.doubled
        assert even._raw_height(t) == sum(even._raw_cone_key(t))


def test_raw_height_of_a_half_point_and_outside_the_span():
    rs = build(SuperType("GL", 2, 1))
    frame = standard_pair(rs, "step2").system
    half = (rs.eps(1) - rs.eps(2)).scale(Q(1, 2))
    # its height is the integer 1, but both simple coordinates are 1/2
    assert frame._raw_height(half.doubled) == 1
    assert frame._raw_cone_key(half.doubled) == (Q(1, 2), Q(1, 2))
    assert frame.cone(half) == (Q(1, 2), Q(1, 2))
    for solve in (frame._raw_height, frame._raw_cone_key):
        with pytest.raises(StructuralError, match="outside"):
            solve(rs.eps(1).doubled)
    assert frame.cone(rs.eps(1)) is None


def test_root_steps_refuse_a_root_off_the_lattice():
    # over [-2*e1, e1 - d1] the positive root e1 of B(1,1) has simple
    # coordinates (-1/2, 0): derive, which fills the table of steps,
    # refuses a Pi that leaves a root off the lattice
    c = build(SuperType("B", 1, 1, sharp_choice="C_side"))
    e1, d1 = c.eps(1), c.delta(1)
    pi = (e1.scale(-2), e1 - d1)
    frame = SimpleSystem(pi, c, {e1}, (), {})
    assert frame._raw_cone_key(e1.doubled) == (Q(-1, 2), 0)
    with pytest.raises(ValidationError, match="not a simple system"):
        derive(pi, c)


def test_standard_pairs_that_coincide():
    # variants can give the same pair; standard_pairs lists each pair once,
    # under the first variant that gives it
    with pytest.raises(DomainError):
        standard_pairs(build(SuperType("D", 1, 0)))
    for fam, m, n in product(("B", "D"), range(1, 5), range(5)):
        if (fam, m, n) == ("D", 1, 0):
            continue
        choices = (None, "B_side", "C_side") if fam == "B" and m == n \
            else (None,)
        for choice in choices:
            kw = {} if choice is None else {"sharp_choice": choice}
            rs = build(SuperType(fam, m, n, **kw))
            named = [(name, standard_pair(rs, name))
                     for name in simple.variants(rs)]
            same = {(a, b) for i, (a, p) in enumerate(named)
                    for b, q in named[i + 1:] if p.key() == q.key()}
            want = set()
            if n == 0 or (fam == "B" and m == n):
                want.add(("step2", "step3"))
            if fam == "D" and m > n == 1:
                want.add(("step3_prime", "second_class"))
            assert same == want, (fam, m, n, choice)
            kept = [(name, pair.key()) for name, pair in standard_pairs(rs)]
            assert kept == [(name, pair.key()) for name, pair in named
                            if name not in {b for _, b in want}]

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superdenom import groups
from superdenom.errors import ResourceLimitError, StructuralError
from superdenom.groups import (SignedPermutation, check_stabilizer_dichotomy,
                               enumerate_group, orbit,
                               orbit_intersects_shifted_cone, reflection,
                               sharp_ball, sharp_group, simple_reflections,
                               stabilizer, weyl_generators, weyl_group)
from superdenom.roots import SuperType, build
from superdenom.simple import AdmissiblePair, derive, even_frame, standard_pair
from superdenom.weights import Weight, bilinear_form, coordinate_order, form4

from oracles import dominant_representative, external_delta_flips, inverse


def test_reflection_action():
    e1 = Weight.eps_unit(1, 2, 1)
    e2 = Weight.eps_unit(2, 2, 1)
    d1 = Weight.delta_unit(1, 2, 1)
    s = reflection(e1 - e2)
    assert s.apply(e1) == e2 and s.apply(e2) == e1 and s.apply(d1) == d1
    assert s.sgn() == -1
    assert s.compose(s).is_identity()
    t = reflection(e1 + e2)
    assert t.apply(e1) == -e2 and t.apply(e2) == -e1
    u = reflection(e1.scale(2))
    assert u.apply(e1) == -e1 and u.apply(e2) == e2
    v = reflection(d1.scale(2))
    assert v.apply(d1) == -d1 and v.apply(e1) == e1
    # reflections act linearly on non-root weights too
    assert s.apply(e1 + d1.scale(3)) == e2 + d1.scale(3)


def test_apply_and_reflection_refuse_what_they_cannot_act_on():
    e1, e2, e3 = (Weight.eps_unit(i, 3, 0) for i in (1, 2, 3))
    s = reflection(e1 - e2)
    # a weight of another length, of the same length split otherwise, or
    # split alike with a longer delta block
    for w in (Weight.eps_unit(1, 2, 0), Weight.eps_unit(1, 2, 1),
              Weight.eps_unit(1, 3, 1)):
        with pytest.raises(StructuralError,
                           match="weight/permutation dimension mismatch"):
            s.apply(w)
    # e1 + e2 + e3 is no isotropic root, but reflecting in it sends e1 to
    # e1 - 2/3 (e1 + e2 + e3), which is no signed unit
    with pytest.raises(StructuralError,
                       match="not a signed unit of its block"):
        reflection(e1 + e2 + e3)


def test_compose_and_inverse():
    e1 = Weight.eps_unit(1, 3, 0)
    e2 = Weight.eps_unit(2, 3, 0)
    e3 = Weight.eps_unit(3, 3, 0)
    a = reflection(e1 - e2)
    b = reflection(e2 - e3)
    cycle = a.compose(b)  # apply b first, then a
    assert cycle.apply(e1) == e2 and cycle.apply(e2) == e3 and cycle.apply(e3) == e1
    assert cycle.sgn() == 1
    assert cycle.compose(inverse(cycle)).is_identity()


def test_enumerate_group_orders():
    glrs = build(SuperType("GL", 3, 2))
    assert len(weyl_group(glrs)) == 6 * 2        # S_3 x S_2
    assert len(sharp_group(glrs)) == 6           # S_3
    brs = build(SuperType("B", 2, 1))
    assert len(weyl_group(brs)) == 8 * 2         # B_2 x B_1
    assert len(sharp_group(brs)) == 8
    drs = build(SuperType("D", 2, 1))
    assert len(sharp_group(drs)) == 4            # D_2
    crs = build(SuperType("C", n=3))
    assert len(sharp_group(crs)) == 48           # C_3
    assert len(weyl_group(build(SuperType("Q", n=4)))) == 24


def test_enumeration_cap():
    rs = build(SuperType("B", 3, 2))
    gens = [g for _, g in weyl_generators(rs)]
    with pytest.raises(ResourceLimitError):
        enumerate_group(gens, (rs.m, rs.n), cap=10)


def test_orbit_and_stabilizer():
    rs = build(SuperType("GL", 3, 1))
    W = sharp_group(rs)
    e1, e2, e3 = rs.eps(1), rs.eps(2), rs.eps(3)
    regular = e1.scale(3) + e2.scale(2) + e3
    assert len(orbit(regular, W)) == 6
    assert len(stabilizer(regular, W)) == 1
    singular = e1 + e2 + e3
    assert len(orbit(singular, W)) == 1
    assert len(stabilizer(singular, W)) == 6
    reflections = frozenset(reflection(a) for a in rs.even())
    assert check_stabilizer_dichotomy(singular, W, reflections)
    assert check_stabilizer_dichotomy(regular, W, reflections)


def test_dominant_representative():
    rs = build(SuperType("GL", 3, 1))
    W = sharp_group(rs)
    simples = [rs.eps(1) - rs.eps(2), rs.eps(2) - rs.eps(3)]
    lam = rs.eps(2).scale(5) + rs.eps(3).scale(7)
    dom = dominant_representative(lam, W, simples)
    assert dom == rs.eps(1).scale(7) + rs.eps(2).scale(5)


def test_orbit_intersects_shifted_cone():
    rs = build(SuperType("GL", 2, 1))
    W = sharp_group(rs)
    frame = even_frame(rs)
    assert frame.simple_roots == (rs.eps(1) - rs.eps(2),)
    lam = rs.eps(1).scale(3) + rs.eps(2).scale(2)
    assert orbit_intersects_shifted_cone(lam, orbit(lam, W), frame, lam)
    # the orbit of 3*e2 stays off the line 5*e1 + 5*e2 + span(e1 - e2)
    lam = rs.eps(2).scale(3)
    assert not orbit_intersects_shifted_cone(
        lam, orbit(lam, W), frame, rs.eps(1).scale(5) + rs.eps(2).scale(5))


def test_external_delta_flips():
    wide = build(SuperType("D", 1, 3))
    flips = external_delta_flips(wide)
    assert len(flips) == wide.n
    for f in flips:
        assert not f.is_identity()
        assert f.compose(f).is_identity()
    assert external_delta_flips(build(SuperType("B", 2, 1))) == ()


def test_deterministic_enumeration():
    rs = build(SuperType("B", 2, 1))
    gens = [g for _, g in simple_reflections(rs.sharp & rs.positive_even)]
    a = enumerate_group(gens, (rs.m, rs.n))
    b = enumerate_group(gens, (rs.m, rs.n))
    assert a == b == sharp_group(rs)
    assert any(w.is_identity() for w in a)
    assert len(set(a)) == len(a)


@st.composite
def _group_cases(draw):
    """A small system, two words in W's generators, two weights in (1/2)Z."""
    family = draw(st.sampled_from(["GL", "B", "C", "D", "Q"]))
    if family in ("C", "Q"):
        stype = SuperType(family, n=draw(st.integers(2, 3)))
    else:
        stype = SuperType(family, draw(st.integers(1, 3)),
                          draw(st.integers(0, 3)))
    rs = build(stype)
    gens = [g for _, g in weyl_generators(rs)]

    def element():
        w = SignedPermutation.identity(rs.m, rs.n)
        if gens:
            for k in draw(st.lists(st.integers(0, len(gens) - 1), max_size=8)):
                w = gens[k].compose(w)
        return w

    def weight():
        coord = st.builds(Fraction, st.integers(-6, 6), st.just(2))
        values = draw(st.lists(coord, min_size=rs.m + rs.n,
                               max_size=rs.m + rs.n))
        return Weight.make(values[:rs.m], values[rs.m:])

    return rs, element(), element(), weight(), weight()


def _apply_by_images(w, x):
    """w(x) written as the per-coordinate loop over (target, sign) images."""
    out = [0] * len(x.doubled)
    for c, (j, s) in zip(x.doubled, w.images):
        if c:
            out[j] = c if s == 1 else -c
    return Weight(tuple(out), x.m)


@settings(deadline=None, max_examples=80)
@given(_group_cases())
def test_signed_permutation_laws(case):
    rs, a, b, x, y = case
    assert a.apply(x) == _apply_by_images(a, x)
    assert b.apply(y) == _apply_by_images(b, y)
    ab = a.compose(b)
    assert ab.apply(x) == a.apply(b.apply(x))
    assert a.compose(inverse(a)).is_identity()
    assert ab.sgn() == a.sgn() * b.sgn()
    assert bilinear_form(a.apply(x), a.apply(y)) == bilinear_form(x, y)
    for alpha in sorted(rs.all_roots(), key=coordinate_order):
        norm = bilinear_form(alpha, alpha)
        if norm != 0:
            s = reflection(alpha)
            assert s.apply(x) == x - alpha.scale(2 * bilinear_form(x, alpha)
                                                 / norm)
            assert s.sgn() == -1


def _reference_group(generators, dims):
    """BFS closure composing tuples of (target, sign) images, sorted."""
    ident = tuple((k, 1) for k in range(sum(dims)))
    gens = [g.images for g in generators]
    seen, frontier = {ident}, [ident]
    while frontier:
        nxt = []
        for w in frontier:
            for g in gens:
                u = tuple((g[j][0], s * g[j][1]) for j, s in w)
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
        frontier = nxt
    return sorted(seen)


@pytest.mark.parametrize("stype", [
    SuperType("GL", 3, 2), SuperType("B", 2, 2), SuperType("C", n=3),
    SuperType("D", 3, 2), SuperType("Q", n=4)])
def test_enumerate_group_matches_the_images_bfs(stype):
    rs = build(stype)
    cases = [([g for _, g in weyl_generators(rs)], weyl_group(rs)),
             ([g for _, g in simple_reflections(rs.sharp & rs.positive_even)],
              sharp_group(rs))]
    for gens, cached in cases:
        got = enumerate_group(gens, (rs.m, rs.n))
        assert got == cached
        # the same elements, each once; the order is the closure's own
        assert sorted(w.images for w in got) == _reference_group(
            gens, (rs.m, rs.n))
        # the determinant carried through the closure is the parity walk's
        assert all(w.sign is not None for w in got)
        assert [w.sgn() for w in got] == \
            [SignedPermutation(w.src, w.m).sgn() for w in got]


def test_from_images_round_trip():
    # w(b_0) = -b_1, w(b_1) = b_0, w(b_2) = b_2: w(x) = (x1, -x0, x2)
    w = SignedPermutation.from_images(((1, -1), (0, 1), (2, 1)), 2)
    assert w.src == (2, -1, 3)
    assert w.images == ((1, -1), (0, 1), (2, 1))
    x = Weight.make([1, 2], [3])
    assert w.apply(x) == Weight.make([2, -1], [3])
    for stype in (SuperType("B", 2, 2), SuperType("D", 3, 2)):
        for g in weyl_group(build(stype)):
            assert SignedPermutation.from_images(g.images, g.m) == g


def test_sharp_ball_on_c5_at_height_10(monkeypatch):
    # the W#-sum of verify-wsharp's C(5) job: 194 of 3,840 elements
    rs = build(SuperType("C", n=5))
    pair = standard_pair(rs, "step2")
    frame = pair.system
    rho = frame.rho
    ball = sharp_ball(pair, 10)
    assert len(ball) == 194 and len(sharp_group(rs)) == 3840
    assert {w: w.sgn() for w in ball} == {
        w: SignedPermutation(w.src, w.m).sgn() for w in sharp_group(rs)
        if sum(frame.cone_key(rho - w.apply(rho))) <= 10}
    monkeypatch.setattr(groups, "DEFAULT_CAP", 100)
    with pytest.raises(ResourceLimitError, match="cap 100"):
        sharp_ball(pair, 10)


def test_sharp_ball_refuses_a_frame_with_a_negative_w_sharp_root():
    # in s_alpha(Pi) the W# simple root alpha is negative, and the walk's
    # heights would fall along a reduced word
    rs = build(SuperType("C", n=3))
    pair = standard_pair(rs, "step2")
    alpha, s = simple_reflections(rs.sharp & rs.positive_even)[0]
    frame = derive([s.apply(a) for a in pair.system.simple_roots], rs)
    assert -alpha in frame.positive_roots
    turned = AdmissiblePair(tuple(s.apply(b) for b in pair.S), frame)
    with pytest.raises(StructuralError, match="negative in this frame"):
        sharp_ball(turned, 4)


def test_sharp_ball_refuses_a_rho_off_the_root_lattice():
    # rho moved by half a unit vector pairs to a half-integer with
    # eps_1 - eps_2, whose step is integral: the first step's key would
    # leave the ints, and the walk raises instead of building a Fraction
    for stype in (SuperType("C", n=3), SuperType("B", 2, 1)):
        rs = build(stype)
        pair = standard_pair(rs, "step2")
        frame = pair.system
        frame.rho = frame.rho + Weight.unit(0, rs.m, rs.n).scale(
            Fraction(1, 2))
        with pytest.raises(StructuralError, match="off the root lattice"):
            sharp_ball(pair, 4)


def test_sharp_ball_takes_half_integral_pairings_whose_steps_are_integral():
    # on B(1,2), <rho, alpha^vee> = 1/2 for W#'s simple root alpha =
    # 2 eps_2, yet k c(alpha) stays on the lattice, as c(alpha) is even:
    # the ball is the height filter of W#, with the solved keys
    rs = build(SuperType("B", 1, 2))
    pair = standard_pair(rs, "step2")
    frame = pair.system
    rho = frame.rho
    halves = [a for a, _ in simple_reflections(rs.sharp & rs.positive_even)
              if 2 * form4(rho, a) % form4(a, a)]
    assert halves == [rs.eps(2).scale(2)]
    keys = {w: frame.cone_key(rho - w.apply(rho)) for w in sharp_group(rs)}
    for H in range(8):
        ball = sharp_ball(pair, H)
        assert ball == {w: key for w, key in keys.items() if sum(key) <= H}
    assert len(sharp_ball(pair, 7)) == len(keys) == 8

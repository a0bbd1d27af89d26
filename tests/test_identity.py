import json
from itertools import product
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from superdenom import groups, identity, series, simple
from superdenom.errors import DomainError, StructuralError
from superdenom.groups import orbit, reflection, sharp_group, weyl_group
from superdenom.identity import (_alternating_sum, _wall_keys,
                                 closed_form_sum,
                                 cross_multiplied_check,
                                 dropped_denominator_sum_vanishes,
                                 e_rho_coefficient, e_rho_coefficient_set,
                                 eps_symmetry_applicable,
                                 eps_symmetry_expected, eps_symmetry_rank,
                                 exchange_preserves_sum, lhs,
                                 partner_products, qn_system,
                                 regular_orbit_scan,
                                 rho_descent_holds, rhs_closed, rhs_expanded,
                                 second_class_expected_set,
                                 simple_norms_nonnegative,
                                 stabilizer_matches_zero_pairing_reflections,
                                 verify, xi_presentation_unique,
                                 xi_uniqueness, y_fixed_by, y_shifts_by)
from superdenom.roots import SuperType, build, simple_roots
from superdenom.simple import (AdmissiblePair, even_frame, second_type_move,
                               second_type_moves, standard_pair,
                               standard_pairs)
from superdenom.straighten import Numerator
from superdenom.weights import Elimination, Weight, coordinate_order

from oracles import (acted_sum, box_keys, box_scan_keys,
                     dominant_representative, external_delta_flips,
                     wall_keys_by_value, window_skew_check)

GOLDEN = Path(__file__).parent / "golden"


def _pair(fam, m, n, variant="step2", **kw):
    return standard_pair(build(SuperType(fam, m, n, **kw)), variant)


def _w2_trivial(rs) -> bool:
    """No even root outside Delta#: W = W#, and skewness has no content."""
    return not (rs.positive_even - rs.sharp)


@pytest.mark.parametrize("fam,m,n", [
    ("GL", 1, 1), ("GL", 2, 1), ("GL", 2, 2),
    ("B", 1, 1), ("B", 2, 1), ("D", 2, 1), ("D", 1, 2), ("C", 1, 2),
])
def test_identity_small(fam, m, n):
    st = SuperType(fam, m, n) if fam != "C" else SuperType("C", n=n)
    pair = standard_pair(build(st), "step2")
    report = verify(pair, H=5)
    assert report.equal, report.first_discrepancy
    checks = {"lhs_equals_rhs_closed": True,
              "expansion_matches_closed_form": True}
    if _w2_trivial(pair.rs):
        # gl(1|1), gl(2|1), D(1,2) and C: the key is left out, and said so
        assert "nothing to check" in report.note
    else:
        checks["skew_invariance"] = True
        assert report.note == ""
    assert report.checks == checks


def test_identity_other_variants():
    for pair in [_pair("B", 2, 1, "step3"),
                 _pair("D", 2, 1, "step3"),
                 _pair("D", 2, 1, "step3_prime"),
                 standard_pair(build(SuperType("D", 2, 1)), "second_class")]:
        report = verify(pair, H=5)
        assert report.equal, (pair.key(), report.first_discrepancy)


def test_report_json_round_trip():
    report = verify(_pair("GL", 1, 1), H=4)
    data = report.to_json()
    assert data["equal"] is True
    assert data["H"] == 4
    # W_2 of gl(1|1) is trivial, so skewness is left out of the checks
    assert set(data["checks"]) == {"lhs_equals_rhs_closed",
                                   "expansion_matches_closed_form"}
    assert "nothing to check" in data["note"]
    assert all(isinstance(v, int) for v in data["timings"].values())


def test_two_expansion_routes_agree_independently():
    pair = _pair("B", 2, 2)
    a = rhs_closed(pair, 5)
    b = rhs_expanded(pair, 5)
    assert a.eq_report(b) is None
    assert lhs(pair, 5).eq_report(a) is None


def test_cross_multiplication_gl21():
    pair = _pair("GL", 2, 1)
    equal, left, right = cross_multiplied_check(pair)
    assert equal
    # X (1+e^{-b1})(1+e^{-b2}) collapses to 1 - e^{-(e1-e2)}
    rs = pair.rs
    frame = pair.system
    zero = rs.eps(1) - rs.eps(1)
    expect = {frame.cone_key(zero): 1,
              frame.cone_key(rs.eps(1) - rs.eps(2)): -1}
    assert dict(right.items_sorted()) == expect


def test_cross_multiplication_more_systems():
    for pair in [_pair("GL", 1, 1), _pair("B", 1, 1), _pair("D", 1, 2)]:
        equal, _, _ = cross_multiplied_check(pair)
        assert equal, pair.rs.stype


def _even_product(pair) -> dict:
    """prod_{alpha in Delta0+}(1 - e^{-alpha}), one subset of roots at a time.

    Keyed like `cross_multiplied_check`'s right side: the cone key of the
    subset's sum, with (-1)^|subset|; no window, so nothing can drop.
    """
    frame = pair.system
    steps = [frame.cone_key(a) for a in pair.rs.positive_even]
    zero, out = (0,) * len(frame.simple_roots), {}
    for chosen in product((0, 1), repeat=len(steps)):
        picked = [s for c, s in zip(chosen, steps) if c]
        key = tuple(map(sum, zip(zero, *picked)))
        out[key] = out.get(key, 0) + (-1) ** len(picked)
    return {k: v for k, v in out.items() if v}


@pytest.mark.parametrize("fam,m,n", [
    ("GL", 2, 2), ("B", 1, 1), ("D", 2, 1), ("GL", 2, 1)])
def test_cross_multiplication_catches_a_shifted_rho(fam, m, n):
    equal, left, right = cross_multiplied_check(_pair(fam, m, n))
    assert equal and dict(right.items_sorted()) == _even_product(
        _pair(fam, m, n))
    shifted = _shifted_rho(fam, m, n, "eps")
    equal, left, right = cross_multiplied_check(shifted)
    assert not equal and left.eq_report(right) is not None
    assert dict(right.items_sorted()) == _even_product(_pair(fam, m, n))


def test_cross_multiplication_misses_a_shift_w_sharp_fixes():
    # W# fixes delta_1 - delta_2, so X and e^rho move by the same factor
    # and the check still passes, as verify's lhs_equals_rhs_closed does
    # (test_verify_catches_a_shifted_rho); only skewness under W_2 sees it
    pair = _shifted_rho("GL", 2, 2, "delta")
    equal, left, right = cross_multiplied_check(pair)
    assert equal and dict(right.items_sorted()) == _even_product(pair)


def test_e_rho_coefficient_is_one():
    for pair in [_pair("GL", 3, 2), _pair("B", 2, 2), _pair("D", 2, 1),
                 _pair("D", 2, 1, "step3_prime"), _pair("C", 1, 3),
                 standard_pair(build(SuperType("D", 3, 2)), "second_class")]:
        assert e_rho_coefficient(pair) == 1, pair.key()


def test_second_class_coefficient_set():
    for m, n in [(2, 1), (3, 1), (3, 2)]:
        rs = build(SuperType("D", m, n))
        pair = standard_pair(rs, "second_class")
        got = frozenset(e_rho_coefficient_set(pair))
        assert got == second_class_expected_set(rs)
        assert sum(w.sgn() for w in got) == 1


def test_exchange_preserves_alternating_sum():
    # decided on St(f_S) = St(f_S'), with the truncated sums as its oracle
    moves = 0
    for fam, m, n in [("GL", 2, 1), ("D", 2, 1), ("D", 1, 2)]:
        rs = build(SuperType(fam, m, n))
        pair = standard_pair(rs, "step2")
        for gamma, gp in second_type_moves(pair):
            assert exchange_preserves_sum(pair, gamma, gp)
            moved = second_type_move(pair, gamma, gp)
            assert rhs_closed(pair, 4).eq_report(rhs_closed(moved, 4)) is None
            moves += 1
    assert moves


def test_lemma_suite_on_standard_pairs():
    pairs = [_pair("GL", 3, 2), _pair("GL", 2, 2), _pair("B", 2, 1),
             _pair("B", 2, 2), _pair("D", 2, 1), _pair("D", 1, 2),
             _pair("C", 1, 2)]
    for pair in pairs:
        assert simple_norms_nonnegative(pair)
        assert rho_descent_holds(pair)
        assert stabilizer_matches_zero_pairing_reflections(pair)
        if eps_symmetry_applicable(pair):
            assert eps_symmetry_rank(pair) == eps_symmetry_expected(pair.rs)


def test_eps_symmetry_scope():
    assert eps_symmetry_applicable(_pair("GL", 3, 2))
    assert eps_symmetry_rank(_pair("GL", 3, 2)) == 3   # S_{n+1}, m > n
    assert eps_symmetry_rank(_pair("GL", 2, 2)) == 2   # S_n, m = n
    assert not eps_symmetry_applicable(_pair("C", 1, 2))
    assert not eps_symmetry_applicable(_pair("D", 2, 2))
    assert not eps_symmetry_applicable(
        standard_pair(build(SuperType("D", 2, 1)), "second_class"))


def test_partner_products_fix_y():
    for pair in [_pair("GL", 3, 2), _pair("GL", 3, 3), _pair("B", 3, 2)]:
        products = partner_products(pair)
        assert products
        for w in products:
            assert y_fixed_by(pair, w)


def test_b_flip_fixes_y():
    # the tail pair has S = {d_n - e_m}; flipping both coordinates fixes Y
    pair = _pair("B", 2, 1, "step3")
    rs = pair.rs
    w = reflection(rs.eps(rs.m)).compose(reflection(rs.delta(rs.n).scale(2)))
    assert y_fixed_by(pair, w)


def test_d_eps_flip_shifts_y():
    pair = _pair("D", 2, 1, "step3")
    rs = pair.rs
    w = reflection(rs.eps(1)).compose(
        reflection(rs.eps(2))).compose(reflection(rs.delta(1).scale(2)))
    beta0 = rs.delta(1) - rs.eps(2)
    assert y_shifts_by(pair, w, -beta0)
    assert dropped_denominator_sum_vanishes(
        pair, next(iter(pair.S)), rs.eps(1) - rs.eps(1))
    # (1 + s_{delta_n}) X = 0
    s_d = reflection(rs.delta(1).scale(2))
    acted = series.expand_raw(acted_sum(closed_form_sum(pair), s_d),
                              pair.system, 5)
    assert acted.eq_report(rhs_closed(pair, 5).scale(-1)) is None


def _y(pair, shift=None) -> dict:
    """e^{rho + shift} / prod_{beta in S}(1 + e^{-beta}) as a one-key sum."""
    frame = pair.system
    exponent = frame.rho if shift is None else frame.rho + shift
    return {(exponent.doubled, tuple(sorted(b.doubled for b in pair.S))): 1}


def _minus(a: dict, b: dict) -> dict:
    return series._accumulate(dict(a), ((k, -c) for k, c in b.items()))


def test_closed_form_checks_can_fail():
    # each check answers False on a false statement, and the expansion of
    # the difference shows the statement really is false
    pair = _pair("D", 2, 1, "step3")
    rs, frame = pair.rs, pair.system
    s = reflection(rs.eps(1) - rs.eps(2))
    assert not y_fixed_by(pair, s)
    assert series.expand_raw(_minus(acted_sum(_y(pair), s), _y(pair)), frame,
                             6).nonzero_count() == 13
    w = reflection(rs.eps(1)).compose(
        reflection(rs.eps(2))).compose(reflection(rs.delta(1).scale(2)))
    beta0 = rs.delta(1) - rs.eps(2)
    assert y_shifts_by(pair, w, -beta0) and not y_shifts_by(pair, w, beta0)
    for shift, keys in ((-beta0, 0), (beta0, 2)):
        diff = _minus(acted_sum(_y(pair), w), _y(pair, shift))
        assert series.expand_raw(diff, frame, 6).nonzero_count() == keys
    # gl(2|2), shift 0: the sum with either denominator dropped survives
    pair = _pair("GL", 2, 2)
    rs, frame = pair.rs, pair.system
    zero = rs.eps(1) - rs.eps(1)
    counts = []
    for beta in pair.S:
        assert not dropped_denominator_sum_vanishes(pair, beta, zero)
        rest = [b for b in pair.S if b != beta]
        counts.append(series.expand_raw(_alternating_sum(
            sharp_group(rs), frame.rho, rest), frame, 8).nonzero_count())
    assert sorted(counts) == [10, 17]
    # gl(3|2), beta = e1 - d1, shift e1 - e2
    pair = _pair("GL", 3, 2)
    rs, frame = pair.rs, pair.system
    beta, shift = rs.eps(1) - rs.delta(1), rs.eps(1) - rs.eps(2)
    assert not dropped_denominator_sum_vanishes(pair, beta, shift)
    rest = [b for b in pair.S if b != beta]
    assert series.expand_raw(_alternating_sum(
        sharp_group(rs), frame.rho + shift, rest), frame,
        6).nonzero_count() == 35
    # a shift off the root lattice needs no span in closed form
    assert not dropped_denominator_sum_vanishes(pair, beta, rs.eps(1))


def test_d_delta_sigma_fixes_x():
    pair = _pair("D", 1, 2)
    rs = pair.rs
    for sigma in external_delta_flips(rs):
        acted = series.expand_raw(acted_sum(closed_form_sum(pair), sigma),
                                  pair.system, 5)
        assert acted.eq_report(rhs_closed(pair, 5)) is None


def test_regular_orbit_scans():
    rs = build(SuperType("GL", 2, 1))
    reps = regular_orbit_scan(rs, H=8)
    assert len(reps) == 1
    assert reps[0] == standard_pair(rs, "step2").system.rho0
    square = build(SuperType("GL", 2, 2))
    assert len(regular_orbit_scan(square, H=8)) == 5
    c2 = build(SuperType("C", n=2))
    got = regular_orbit_scan(c2, H=8)
    assert len(got) == 1


def _in_lattice_cone(frame, w) -> bool:
    """Are w's simple coordinates nonnegative integers?"""
    coords = frame.cone(w)
    return coords is not None and all(c.denominator == 1 for c in coords)


def _weight_orbit_scan(rs, H):
    """The orbit scan on Weights: orbits by `orbit`, lambda by frame.weight.

    The reference for regular_orbit_scan, which runs on raw tuples; it
    returns the representatives without the classification check.
    """
    frame = standard_pair(rs, "step2").system
    group = weyl_group(rs)
    rho0 = frame.rho0
    evens = simple_roots(rs.positive_even)
    reps, seen = set(), set()
    for key in box_keys(len(frame.simple_roots), H):
        lam = rho0 - frame.weight(key)
        if lam in seen:
            continue
        orb = orbit(lam, group)
        seen.update(orb)
        if len(orb) != len(group):
            continue
        if all(_in_lattice_cone(frame, rho0 - p) for p in orb):
            reps.add(dominant_representative(lam, group, evens))
    return sorted(reps, key=coordinate_order)


@pytest.mark.parametrize("stype,H", [
    (SuperType("GL", 2, 2), 8), (SuperType("GL", 3, 3), 10),
    (SuperType("C", n=3), 12), (SuperType("GL", 1, 1), 8),
    (SuperType("GL", 3, 2), 10), (SuperType("GL", 4, 2), 8),
    (SuperType("C", n=2), 12), (SuperType("C", n=4), 10)])
def test_raw_orbit_scan_matches_the_weight_scan(stype, H):
    rs = build(stype)
    assert regular_orbit_scan(rs, H) == _weight_orbit_scan(rs, H)


_SCAN_SYSTEMS = ([SuperType("GL", m, n) for m in range(1, 5)
                  for n in range(1, m + 1)]
                 + [SuperType("C", n=n) for n in (2, 3, 4)])


def test_pruned_walk_keeps_exactly_the_box_keys_inside_the_walls(monkeypatch):
    # every wall set the scan builds at H = 0..10, against the unpruned
    # box walk; the largest box, gl(4|4) at H = 10, has C(17, 7) = 19,448
    # keys
    real, seen = identity._wall_keys, []

    def spy(walls, rank, H):
        keys = real(walls, rank, H)
        seen.append((walls, rank, H, keys))
        return keys

    monkeypatch.setattr(identity, "_wall_keys", spy)
    for stype in _SCAN_SYSTEMS:
        rs = build(stype)
        rank = len(standard_pair(rs, "step2").system.simple_roots)
        for H in range(11):
            seen.clear()
            reps = regular_orbit_scan(rs, H)
            ((walls, got_rank, got_H, keys),) = seen
            assert (got_rank, got_H) == (rank, H)
            assert keys == box_scan_keys(walls, rank, H), (stype, H)
            assert len(keys) == len(reps)


@pytest.mark.parametrize("stype", [SuperType("GL", 3, 3), SuperType("C", n=3)])
def test_interval_walk_matches_the_value_by_value_walk(monkeypatch, stype):
    # the walls the scan builds at H = 0..30, against the walk that tests
    # every value of each coordinate (`oracles.wall_keys_by_value`): same
    # keys, same order
    real, seen = identity._wall_keys, []
    monkeypatch.setattr(identity, "_wall_keys", lambda walls, rank, H:
                        seen.append((walls, rank, H)) or real(walls, rank, H))
    rs = build(stype)
    for H in range(31):
        seen.clear()
        reps = regular_orbit_scan(rs, H)
        ((walls, rank, got_H),) = seen
        keys = real(walls, rank, H)
        assert keys == wall_keys_by_value(walls, rank, H), (stype, H)
        assert got_H == H and len(keys) == len(reps)


_WALLS = st.integers(0, 5).flatmap(lambda rank: st.tuples(
    st.just(rank),
    st.lists(st.tuples(st.integers(-12, 12),
                       st.lists(st.integers(-4, 4), min_size=rank,
                                max_size=rank)),
             max_size=4)))


@settings(max_examples=300, deadline=None)
@given(case=_WALLS, H=st.integers(0, 8))
# the first coordinate alone breaks the wall and the second pays it back,
# so pruning on the partial sum alone would lose (3, 2); rank 0 has one key
@example(case=(2, [(1, [1, -2])]), H=5)
@example(case=(0, [(0, [])]), H=0)
def test_pruned_walk_matches_the_box_on_random_walls(case, H):
    # rows of mixed signs make the bound rem * min(0, min(row[i:])) bite
    # on walls that no rho_0 gives
    rank, walls = case
    keys = _wall_keys(walls, rank, H)
    assert keys == box_scan_keys(walls, rank, H)
    assert keys == wall_keys_by_value(walls, rank, H)


def test_orbit_scan_rejects_a_classification_it_does_not_meet(monkeypatch):
    rs = build(SuperType("GL", 2, 2))
    full = identity.expected_regular_orbit_reps(rs, 8)
    assert len(full) == 5
    monkeypatch.setattr(identity, "expected_regular_orbit_reps",
                        lambda rs, H, pair=None: full[1:])
    with pytest.raises(StructuralError, match="do not match"):
        regular_orbit_scan(rs, 8)
    with pytest.raises(DomainError):
        regular_orbit_scan(build(SuperType("B", 2, 1)), 8)


def test_orbit_scan_derives_its_frame_once(monkeypatch):
    rs = build(SuperType("GL", 2, 2))
    real = simple.derive
    calls = []
    monkeypatch.setattr(simple, "derive",
                        lambda *a: calls.append(a) or real(*a))
    reps = regular_orbit_scan(rs, 8)
    assert len(calls) == 1
    assert reps == identity.expected_regular_orbit_reps(rs, 8)


def test_xi_uniqueness_and_negative_control():
    assert xi_uniqueness(build(SuperType("GL", 2, 2)))
    assert xi_uniqueness(build(SuperType("GL", 3, 3)))
    pair = _pair("GL", 2, 2)
    rs = pair.rs
    from superdenom.identity import xi_vector
    xi = xi_vector(pair)
    ok, detail = xi_presentation_unique(pair)
    assert ok
    bad, detail = xi_presentation_unique(pair, target=xi + rs.eps(1) - rs.eps(2))
    assert not bad
    assert "outside S" in detail


@pytest.mark.parametrize("fam,m,n", [("GL", 2, 2), ("GL", 3, 3), ("GL", 3, 1)])
def test_xi_presentation_failure_modes(fam, m, n):
    pair = _pair(fam, m, n)
    xi = identity.xi_vector(pair)
    assert xi_presentation_unique(pair) == (
        True, "unique, coefficient 1 on each element of S")
    ok, detail = xi_presentation_unique(pair, target=-xi)
    assert not ok and "outside the cone" in detail
    # a root outside S whose support lies inside the target's
    beta = min((b for b in pair.system.positive_roots if b not in pair.S),
               key=coordinate_order)
    ok, detail = xi_presentation_unique(pair, target=xi + beta)
    assert not ok and "outside S" in detail
    ok, detail = xi_presentation_unique(pair, target=xi.scale(2))
    assert not ok
    assert detail == "coefficients on S are " + ", ".join(["2"] * len(pair.S))


def _failed_checks(report) -> set:
    """Names of the failed checks; a mutated input must fail visibly."""
    assert report.equal is False
    assert report.first_discrepancy is not None
    return {name for name, ok in report.checks.items() if ok is False}


def test_verify_catches_a_dropped_element_of_s():
    pair = _pair("GL", 2, 2)
    short = AdmissiblePair(pair.S[1:], pair.system)
    # phi/|w| reads the same shortened S, so only it agrees with the W#-sum
    assert _failed_checks(verify(short, H=5)) == {
        "lhs_equals_rhs_closed", "skew_invariance"}


def test_verify_catches_a_flipped_term(monkeypatch):
    # the identity's term has base key 0, so no height culls it from the
    # ball's sum; skew straightens f, read off the pair, and never reads
    # the merged sum, so the flip fails the two checks that do read it
    original = identity.closed_form_terms

    def flipped(p, ball):
        terms = original(p, ball)
        own = ((0,) * len(p.system.simple_roots),
               tuple(sorted(b.doubled for b in p.S)))
        terms[own] = -terms[own]
        return terms

    monkeypatch.setattr(identity, "closed_form_terms", flipped)
    for fam, m, n in (("GL", 2, 2), ("C", 1, 3), ("GL", 3, 1)):
        assert _failed_checks(verify(_pair(fam, m, n), H=5)) == {
            "lhs_equals_rhs_closed", "expansion_matches_closed_form"}


def test_verify_catches_a_shifted_key_of_the_ball(monkeypatch):
    # the identity's carried key moved by the step of the first simple
    # root, (1, 0, ..., 0): its term leaves key 0, so lhs, which never
    # reads the ball, differs at e^rho.  Both W# sides build their base
    # keys from the walk's keys, so they move together, and
    # expansion_matches_closed_form may still pass (it does here); skew
    # straightens f and never reads the ball
    original = identity.sharp_ball

    def shifted(p, H):
        ball = original(p, H)
        one = next(w for w in ball if w.is_identity())
        ball[one] = (ball[one][0] + 1,) + ball[one][1:]
        return ball

    monkeypatch.setattr(identity, "sharp_ball", shifted)
    for fam, m, n in (("GL", 2, 2), ("C", 1, 3), ("B", 2, 1), ("D", 3, 2)):
        assert _failed_checks(verify(_pair(fam, m, n), H=5)) == {
            "lhs_equals_rhs_closed"}, (fam, m, n)


@pytest.mark.parametrize("stype", [SuperType("D", 4, 2), SuperType("B", 4, 3)])
def test_verify_solves_once_per_pair(monkeypatch, stype):
    # verify-wsharp's osp jobs at H=8: the walk's start is the one solve
    # of a pair; every other key is carried or stepped on ints, and no
    # height row is read
    solves, eliminations = [], []
    real_key = simple.SimpleSystem._raw_cone_key
    real_numerators = Elimination.numerators
    monkeypatch.setattr(simple.SimpleSystem, "_raw_cone_key",
                        lambda frame, t: solves.append(frame)
                        or real_key(frame, t))
    monkeypatch.setattr(Elimination, "numerators",
                        lambda solver, t: eliminations.append(solver)
                        or real_numerators(solver, t))
    pairs = standard_pairs(build(stype))
    assert len(pairs) == {"D": 4, "B": 2}[stype.family]
    for _, pair in pairs:
        solves.clear(), eliminations.clear()
        assert verify(pair, H=8).equal
        assert len(solves) <= 1 and len(eliminations) == len(solves)
        assert all(frame is pair.system for frame in solves)
        assert "_height_functional" not in vars(pair.system)
    assert not hasattr(simple.SimpleSystem, "_raw_height")


def test_verify_catches_a_shifted_rho():
    pair = _pair("GL", 2, 2)
    rs = pair.rs
    pair.system.rho = pair.system.rho + (rs.eps(1) - rs.eps(2))
    assert _failed_checks(verify(pair, H=5)) == {
        "lhs_equals_rhs_closed", "skew_invariance"}
    # W# fixes delta_1 - delta_2, so both sides move by the same factor
    # and only the skewness under W_2 sees the shift
    pair = _pair("GL", 2, 2)
    pair.system.rho = pair.system.rho + (rs.delta(1) - rs.delta(2))
    assert _failed_checks(verify(pair, H=5)) == {"skew_invariance"}
    # W_2 is trivial on C and gl(3|1), so verify sums over the ball; k = -3
    # leaves rho non-dominant, and the walk starts from its straightening
    for (fam, m, n), k in product((("C", 1, 3), ("GL", 3, 1)), (1, -3)):
        pair = _pair(fam, m, n)
        rs, frame = pair.rs, pair.system
        frame.rho = frame.rho + (rs.eps(1) - rs.eps(2)).scale(k)
        sharp = [a for a, _ in groups.simple_reflections(
            rs.sharp & rs.positive_even)]
        assert groups.is_dominant(frame.rho, sharp) is (k > 0)
        assert _failed_checks(verify(pair, H=5)) == {"lhs_equals_rhs_closed"}
        whole = series.expand_raw(closed_form_sum(pair), frame, 5)
        assert rhs_closed(pair, 5).eq_report(whole) is None


@pytest.mark.parametrize("stype", [
    SuperType("B", 2, 2), SuperType("D", 2, 1), SuperType("C", n=3),
    SuperType("GL", 3, 1), SuperType("GL", 2, 2)])
def test_verify_enumerates_only_w_sharp(monkeypatch, stype):
    # W never, and of W# only the ball, which is walked, not enumerated:
    # both sides of X sum over the ball and skew straightens, so verify
    # enumerates neither W nor W#, on every family, passing or failing
    # (rho shifted by a root of W_2's block, where W_2 is nontrivial)
    def refused(*args, **kwargs):
        raise AssertionError("verify enumerated a group")

    for module in (groups, identity):
        for name in ("enumerate_group", "sharp_group", "weyl_group"):
            monkeypatch.setattr(module, name, refused)
    rs = build(stype)
    variants = standard_pairs(rs)
    assert len(variants) == {"D_EPS": 3}.get(rs.family, 1)
    for _, pair in variants:
        assert verify(pair, H=4).equal
    if not _w2_trivial(rs):
        pair = standard_pair(rs, "step2")
        beta = min(rs.positive_even - rs.sharp, key=coordinate_order)
        pair.system.rho = pair.system.rho + beta
        assert _failed_checks(verify(pair, H=4)) >= {"skew_invariance"}


def _reports(pairs, qn_ranks, H):
    """verify's reports on the pairs and q(n)'s with a, timings left out."""
    out = [verify(pair, H).to_json() for pair in pairs]
    for n in qn_ranks:
        report, a = identity.qn_identity(n, H=H)
        out.append(dict(report.to_json(), a=a))
    for entry in out:
        del entry["timings"]
    return out


def test_no_report_reads_the_order_of_group_elements(monkeypatch):
    # W, W# and the W# ball come in the closure's discovery order, which
    # no result may depend on: reversed, every report stays the same
    pairs = [pair for stype in (
        SuperType("GL", 3, 2), SuperType("GL", 3, 3), SuperType("B", 2, 2),
        SuperType("B", 3, 2), SuperType("D", 3, 2), SuperType("D", 4, 2),
        SuperType("C", n=4)) for _, pair in standard_pairs(build(stype))]
    before = _reports(pairs, range(3, 7), 6)
    def reversed_order(out):
        # the ball is a dict {w: mu_w}, the groups are tuples
        return dict(reversed(out.items())) if isinstance(out, dict) \
            else out[::-1]

    for name in ("sharp_group", "weyl_group", "sharp_ball"):
        monkeypatch.setattr(identity, name,
                            lambda *args, f=getattr(identity, name):
                            reversed_order(f(*args)))
    assert identity.sharp_group(pairs[0].rs) == \
        groups.sharp_group(pairs[0].rs)[::-1]
    assert _reports(pairs, range(3, 7), 6) == before


def _in_order(frame, offset, factors, H):
    """e^offset times the factors, applied in the order given."""
    return series.FormalSeries(frame, H, offset, series.multiply(
        H, [({frame.cone_key(offset - offset): 1}, factors)]))


def _odd_first(frame, offset, odd, even, H):
    """The division-first order: every odd factor, then every even one."""
    factors = [(frame.cone_key(b), None)
               for b in sorted(odd, key=Weight.coords)]
    factors += [(frame.cone_key(a), -1)
                for a in sorted(even, key=Weight.coords)]
    return _in_order(frame, offset, factors, H)


def _coordinate_order(frame, offset, odd, even, H):
    """Even factors first, then the odd ones, each in coordinate order."""
    factors = [(frame.cone_key(a), -1)
               for a in sorted(even, key=coordinate_order)]
    factors += [(frame.cone_key(b), None)
                for b in sorted(odd, key=coordinate_order)]
    return _in_order(frame, offset, factors, H)


@pytest.mark.parametrize("stype,H", [
    (SuperType("GL", 3, 3), 9), (SuperType("GL", 4, 3), 8),
    (SuperType("B", 2, 2), 8), (SuperType("D", 3, 2), 8),
    (SuperType("C", n=3), 10)])
def test_lhs_matches_the_odd_first_order(stype, H):
    pair = standard_pair(build(stype), "step2")
    frame = pair.system
    got = lhs(pair, H)
    assert got.nonzero_count() > 0
    assert got.eq_report(_odd_first(frame, frame.rho, frame.pos_odd,
                                    pair.rs.positive_even, H)) is None


def test_qn_left_side_matches_the_odd_first_order():
    rs = qn_system(4)
    frame = even_frame(rs)
    zero = Weight.zero(rs.m, rs.n)
    got = identity._denominator(frame, zero, rs.positive_even,
                                rs.positive_even, 8)
    assert got.nonzero_count() > 0
    assert got.eq_report(_odd_first(frame, zero, rs.positive_even,
                                    rs.positive_even, 8)) is None


def test_lhs_support_stays_near_its_final_size(monkeypatch):
    # series.multiply runs every chain through the layered kernel, for lhs
    # and for _odd_first alike; fed one factor per call, it records the
    # support after each factor, the sum of its height layers' sizes
    sizes = []
    original = series._product

    def recording(codec, data, factors, steps):
        for factor in factors:
            data = original(codec, data, [factor], steps)
            sizes.append(len(data))
        return data

    monkeypatch.setattr(series, "_product", recording)
    pair = _pair("GL", 4, 4)
    final = lhs(pair, 10).nonzero_count()
    assert final == 2782
    assert len(sizes) == len(pair.rs.positive_even) + len(pair.system.pos_odd)
    assert max(sizes) <= 2 * final
    # dividing first peaks at several times the final support
    sizes.clear()
    frame = pair.system
    _odd_first(frame, frame.rho, frame.pos_odd, pair.rs.positive_even, 10)
    assert max(sizes) > 5 * final
    # dividing by the tallest odd roots first walks at most half the keys
    # of the coordinate order, summed over the odd factors' outputs
    odd = len(frame.pos_odd)
    sizes.clear()
    assert lhs(pair, 10).nonzero_count() == final
    tallest_first = sum(sizes[-odd:])
    sizes.clear()
    coordinate = _coordinate_order(frame, frame.rho, frame.pos_odd,
                                   pair.rs.positive_even, 10)
    assert (tallest_first, sum(sizes[-odd:])) == (16772, 37742)
    assert 2 * tallest_first <= sum(sizes[-odd:])
    assert coordinate.eq_report(lhs(pair, 10)) is None


def test_passing_runs_stay_packed(monkeypatch):
    # every side of a passing verify or q(n) run starts at key 0, so all
    # share one window and compare their packed dicts: nothing is unpacked
    calls = []
    original = series._Packing.unpack

    def counting(codec, data):
        calls.append(len(data))
        return original(codec, data)

    monkeypatch.setattr(series._Packing, "unpack", counting)
    pair = _pair("GL", 3, 3)
    assert verify(pair, H=8).equal
    for side in (lhs(pair, 8), rhs_closed(pair, 8), rhs_expanded(pair, 8)):
        assert side.codec.lo == (0,) * 5 and side.codec.H == 8
    report, a = identity.qn_identity(4)
    assert report.equal and a == 2
    assert calls == []


@pytest.mark.parametrize("stype,variant", [
    (SuperType("B", 2, 1), "step2"), (SuperType("D", 3, 1), "step2"),
    (SuperType("D", 4, 2), "second_class")])
def test_skew_repacks_only_the_side_outside_the_joint_window(
        monkeypatch, stype, variant):
    # a passing verify unpacks nothing: lhs, X and the phi/|w| expansion
    # all start at key 0, so they share one window.  With rho lowered by
    # W_2's least root, skew fails on St(f) alone: it builds no series in
    # another window, so no side is outside the joint one and nothing is
    # unpacked or re-packed, for the verdict or for the witness
    calls = []
    original = series._Packing.unpack

    def counting(codec, data):
        calls.append(len(data))
        return original(codec, data)

    monkeypatch.setattr(series._Packing, "unpack", counting)
    rs = build(stype)
    pair = standard_pair(rs, variant)
    assert verify(pair, H=5).equal
    zero = (0,) * len(pair.system.simple_roots)
    for side in (lhs(pair, 5), rhs_closed(pair, 5), rhs_expanded(pair, 5)):
        assert side.codec.lo == zero and side.codec.H == 5
    assert calls == []
    beta = min(rs.positive_even - rs.sharp, key=coordinate_order)
    pair.system.rho = pair.system.rho - beta
    ok, witness = identity.skew_invariance_check(pair)
    assert ok is False
    assert set(witness) == {"straightened", "left", "right", "generator"}
    assert calls == []


def _refuse_expansion(monkeypatch):
    """Make every W# walk, normal form and expansion a check could reach
    raise."""
    def refused(*args, **kwargs):
        raise AssertionError("the check expanded")

    for name in ("expand_keyed", "rhs_closed", "sharp_ball", "sharp_group",
                 "_alternating_sum", "normalize", "closed_form_terms"):
        monkeypatch.setattr(identity, name, refused)


def test_closed_form_alternant_checks_expand_nothing(monkeypatch):
    # the collapse step and the exchange lemma each straighten f and
    # compare dicts: they enumerate no W#, normalize no sum and expand
    # nothing, whether the verdict is True or False
    _refuse_expansion(monkeypatch)
    for m, n in [(2, 1), (3, 1), (3, 2)]:
        rs = build(SuperType("D", m, n))
        pair = standard_pair(rs, "step3")
        assert dropped_denominator_sum_vanishes(
            pair, rs.delta(n) - rs.eps(m), Weight.zero(m, n)), (m, n)
    pair = _pair("GL", 2, 2)
    for beta in pair.S:
        assert not dropped_denominator_sum_vanishes(pair, beta,
                                                    Weight.zero(2, 2))
    rs = build(SuperType("GL", 3, 2))
    assert not dropped_denominator_sum_vanishes(
        _pair("GL", 3, 2), rs.eps(1) - rs.delta(1), rs.eps(1) - rs.eps(2))
    moves = 0
    for fam, m, n in [("GL", 2, 1), ("D", 2, 1), ("D", 1, 2)]:
        pair = _pair(fam, m, n)
        for gamma, gp in second_type_moves(pair):
            assert exchange_preserves_sum(pair, gamma, gp)
            moves += 1
    assert moves


@pytest.mark.parametrize("stype,variant", [
    (SuperType("GL", 3, 3), "step2"), (SuperType("C", n=3), "step2"),
    (SuperType("B", 2, 2), "step2"), (SuperType("D", 3, 2), "step2"),
    (SuperType("D", 3, 2), "second_class")])
def test_passing_skew_expands_nothing(monkeypatch, stype, variant):
    # skew straightens f once and compares one dict per W_2 generator: a
    # passing pair builds no X, walks no ball and expands nothing, and the
    # window oracle, which expands the acted sum of all of W#, agrees
    pair = standard_pair(build(stype), variant)
    _refuse_expansion(monkeypatch)
    got = identity.skew_invariance_check(pair)
    assert got == ((None, None) if _w2_trivial(pair.rs) else (True, None))
    monkeypatch.undo()
    assert window_skew_check(pair, 5) == got


@pytest.mark.parametrize("stype", [
    SuperType("GL", 3, 3), SuperType("B", 2, 2), SuperType("D", 3, 2)])
def test_failing_skew_expands_nothing(monkeypatch, stype):
    # with rho shifted by delta_1 - delta_2 skew fails, and the witness is
    # a straightened key of St(f): no X is built, no ball walked and no
    # acted sum expanded, for the verdict or for the witness
    pair = standard_pair(build(stype), "step2")
    rs = pair.rs
    pair.system.rho = pair.system.rho + (rs.delta(1) - rs.delta(2))
    _refuse_expansion(monkeypatch)
    ok, witness = identity.skew_invariance_check(pair)
    assert ok is False
    assert set(witness) == {"straightened", "left", "right", "generator"}


@pytest.mark.parametrize("stype", [SuperType("B", 2, 2), SuperType("C", n=3)])
def test_skew_and_verify_hold_with_w_sharp_unenumerable(monkeypatch, stype):
    # sharp_group still refuses a W# one element short; skew and verify
    # no longer read W#, so they pass with it refused (the kernel's type
    # rules are tied to W# in tests/test_straighten.py)
    rs = build(stype)
    pair = standard_pair(rs, "step2")
    original = groups.enumerate_group
    monkeypatch.setattr(groups, "enumerate_group",
                        lambda *args: original(*args)[:-1])
    groups.sharp_group.cache_clear()
    try:
        with pytest.raises(StructuralError, match="elements, not"):
            groups.sharp_group(rs)
        assert identity.skew_invariance_check(pair) == (
            (None, None) if _w2_trivial(rs) else (True, None))
        assert verify(pair, H=4).equal
    finally:
        groups.sharp_group.cache_clear()


@pytest.mark.parametrize("stype", [
    SuperType("GL", 3, 3), SuperType("C", n=3), SuperType("B", 2, 2)])
def test_raw_key_skew_test_rejects_a_broken_sum(stype):
    # the window oracle (`oracles.window_skew_check`) settles a generator
    # when it maps the raw keys onto sgn(g) times the sum: negating one
    # coefficient or deleting one key must make some W generator that
    # settles the true sum fail that test
    pair = standard_pair(build(stype), "step2")
    merged = identity.closed_form_sum(pair)
    gens = [g for _, g in groups.weyl_generators(pair.rs)]

    def settles(g, merged):
        return acted_sum(merged, g) == {k: g.sgn() * c
                                        for k, c in merged.items()}

    settled = [g for g in gens if settles(g, merged)]
    assert settled
    for key, coeff in merged.items():
        negated = dict(merged)
        negated[key] = -coeff
        deleted = {k: t for k, t in merged.items() if k != key}
        for broken in (negated, deleted):
            assert not all(settles(g, broken) for g in settled)


@pytest.mark.parametrize("stype", [
    SuperType("GL", 3, 3), SuperType("D", 3, 2), SuperType("B", 2, 2)])
def test_straightened_skew_rejects_a_broken_numerator(stype):
    # negating one coefficient of St(f) or deleting one key must make some
    # W_2 generator fail the straightened comparison
    pair = standard_pair(build(stype), "step2")
    num = Numerator(pair.system, pair.system.rho, pair.S)
    terms = dict(num.terms)
    gens = [g for _, g in identity._w2_generators(build(stype))]

    def settles(g):
        sign = g.sgn()
        return num.acted(g) == {k: sign * c for k, c in num.terms.items()}

    assert gens and all(settles(g) for g in gens)
    for key, coeff in terms.items():
        for broken in (dict(terms) | {key: -coeff},
                       {k: c for k, c in terms.items() if k != key}):
            num.terms = broken
            assert not all(settles(g) for g in gens)


@pytest.mark.parametrize("stype,variant", [
    (SuperType("GL", 3, 3), "step2"), (SuperType("C", n=3), "step2"),
    (SuperType("B", 2, 2), "step2"), (SuperType("D", 3, 2), "second_class")])
def test_verify_builds_the_w_sharp_terms_once(monkeypatch, stype, variant):
    # the merged terms over the ball feed the expansion of X, and skew,
    # which straightens f instead, builds none
    pair = standard_pair(build(stype), variant)
    calls = []
    original = identity.closed_form_terms

    def counting(p, ball):
        calls.append(p)
        return original(p, ball)

    monkeypatch.setattr(identity, "closed_form_terms", counting)
    assert verify(pair, H=5).equal
    assert calls == [pair]


def _shifted_rho(fam, m, n, unit):
    pair = _pair(fam, m, n)
    shift = getattr(pair.rs, unit)
    pair.system.rho = pair.system.rho + (shift(1) - shift(2))
    return pair


def _shortened_s():
    pair = _pair("GL", 2, 2)
    return AdmissiblePair(pair.S[1:], pair.system)


_WITNESS_CASES = {
    "gl(2|2) rho+(e1-e2)": lambda: _shifted_rho("GL", 2, 2, "eps"),
    "gl(2|2) rho+(d1-d2)": lambda: _shifted_rho("GL", 2, 2, "delta"),
    "gl(3|3) rho+(d1-d2)": lambda: _shifted_rho("GL", 3, 3, "delta"),
    "B(2,2) rho+(d1-d2)": lambda: _shifted_rho("B", 2, 2, "delta"),
    "D(3,2) rho+(d1-d2)": lambda: _shifted_rho("D", 3, 2, "delta"),
    "gl(2|2) S shortened": _shortened_s,
}


def test_failure_witnesses_match_golden():
    # the skew witness is the first failing generator's least differing
    # straightened key; verify reports it where both sides of X agree
    got = {}
    for name, make in _WITNESS_CASES.items():
        report = verify(make(), H=6)
        _, witness = identity.skew_invariance_check(make())
        got[name] = {"checks": report.checks,
                     "first_discrepancy": report.first_discrepancy,
                     "skew_witness": witness}
    text = json.dumps(got, indent=2, sort_keys=True, ensure_ascii=False)
    assert text + "\n" == (GOLDEN / "verify_witnesses.json").read_text()

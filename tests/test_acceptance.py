"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Every comparison is exact (integers and Fractions); the truncation height
is part of the criterion, not a tolerance.  Run with -s to see the lines.
"""

import math
import time

from superdenom import groups, identity
from superdenom.diagrams import equivalence_classes
from superdenom.groups import reflection
from superdenom.identity import (classical_dichotomy_check,
                                 classical_dominant_check,
                                 classical_regular_cone_check,
                                 closed_form_sum, coefficient_box,
                                 cross_multiplied_check,
                                 dropped_denominator_sum_vanishes,
                                 e_rho_coefficient, e_rho_coefficient_set,
                                 eps_symmetry_applicable,
                                 eps_symmetry_expected, eps_symmetry_rank,
                                 expected_regular_orbit_reps,
                                 lhs_xi_coefficient, partner_products,
                                 qn_a_value, qn_identity, qn_standard_set,
                                 qn_system,
                                 regular_orbit_scan, rho_descent_holds,
                                 rhs_closed, second_class_expected_set,
                                 simple_norms_nonnegative,
                                 skew_invariance_check,
                                 stabilizer_matches_zero_pairing_reflections,
                                 verify, xi_uniqueness, y_fixed_by,
                                 y_shifts_by)
from superdenom.roots import SuperType, build
from superdenom.series import expand_raw
from superdenom.simple import (enumerate_admissible_pairs,
                               enumerate_simple_systems, even_frame,
                               odd_reflection,
                               orthogonal_subsets, second_type_move,
                               second_type_moves, standard_pair,
                               standard_pairs)

from oracles import acted_sum, external_delta_flips

# The fixture battery: every family, both sharp choices where the choice
# exists, and both D(2,1) equivalence classes.
_FIXTURES = [
    (SuperType("GL", 1, 1), "step2"),
    (SuperType("GL", 2, 1), "step2"),
    (SuperType("GL", 2, 2), "step2"),
    (SuperType("GL", 3, 2), "step2"),
    (SuperType("GL", 3, 3), "step2"),
    (SuperType("B", 1, 1), "step2"),
    (SuperType("B", 1, 1, sharp_choice="B_side"), "step2"),
    (SuperType("B", 2, 1), "step2"),
    (SuperType("B", 1, 2), "step2"),
    (SuperType("B", 2, 2), "step2"),
    (SuperType("B", 2, 2, sharp_choice="B_side"), "step2"),
    (SuperType("D", 2, 1), "step2"),
    (SuperType("D", 2, 1), "second_class"),
    (SuperType("D", 2, 2), "step2"),
    (SuperType("D", 1, 2), "step2"),
    (SuperType("C", n=2), "step2"),
    (SuperType("C", n=3), "step2"),
]


def _fixture_systems():
    seen, out = set(), []
    for stype, _ in _FIXTURES:
        if stype.label() not in seen:
            seen.add(stype.label())
            out.append(build(stype))
    return out


class _criterion:
    def __init__(self, num, name):
        self.num, self.name = num, name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print("ACCEPTANCE %d %-42s %s" % (self.num, self.name, status))
        return False


def test_criterion_1_denominator_identity():
    with _criterion(1, "denominator identity, H=8 exact"):
        for stype, variant in _FIXTURES:
            pair = standard_pair(build(stype), variant)
            start = time.perf_counter()
            report = verify(pair, H=8)
            elapsed = time.perf_counter() - start
            assert report.equal, (stype.label(), report.first_discrepancy)
            assert report.checks["lhs_equals_rhs_closed"]
            assert report.checks["expansion_matches_closed_form"]
            assert elapsed <= 60, (stype.label(), elapsed)
        # deep check on gl(2|1): taller truncation, then the symbolic
        # cross-multiplication X (1+e^{-b1})(1+e^{-b2}) = 1 - e^{-(e1-e2)}
        pair = standard_pair(build(SuperType("GL", 2, 1)), "step2")
        deep = verify(pair, H=14)
        assert deep.equal, deep.first_discrepancy
        equal, left, right = cross_multiplied_check(pair)
        assert equal
        rs, frame = pair.rs, pair.system
        zero = rs.eps(1) - rs.eps(1)
        assert dict(right.items_sorted()) == {
            frame.cone_key(zero): 1,
            frame.cone_key(rs.eps(1) - rs.eps(2)): -1}


def test_criterion_2_e_rho_coefficient():
    with _criterion(2, "e^rho coefficient is 1"):
        for rs in _fixture_systems():
            for _, pair in standard_pairs(rs):
                assert e_rho_coefficient(pair) == 1, pair.key()
        # second-class anchor pairs: the full three-element coefficient set
        for m, n in [(2, 1), (3, 1), (3, 2)]:
            rs = build(SuperType("D", m, n))
            got = frozenset(e_rho_coefficient_set(
                standard_pair(rs, "second_class")))
            assert got == second_class_expected_set(rs)
            assert sum(w.sgn() for w in got) == 1


def test_criterion_3_qn_alternating_sum():
    with _criterion(3, "q(n) alternating sum"):
        for n in range(2, 7):
            rs = qn_system(n)
            a = qn_a_value(rs, qn_standard_set(rs))
            assert abs(a) == math.factorial(n // 2), (n, a)
            report, a_again = qn_identity(rs, H=8)
            assert report.equal, (n, report.first_discrepancy)
            assert a_again == a
        # below the maximal size every orthogonal set has a(S) = 0
        for n in range(2, 6):
            rs = qn_system(n)
            for size in range(n // 2):
                for S in orthogonal_subsets(rs.positive_even, size):
                    assert qn_a_value(rs, S) == 0, (n, S)


def _pi_determined_by_s(rs):
    seen = {}
    for pair in enumerate_admissible_pairs(rs):
        skey = frozenset(b.coords() for b in pair.S)
        if skey in seen and seen[skey] != pair.key():
            return False
        seen[skey] = pair.key()
    return True


def test_criterion_4_equivalence_classes():
    with _criterion(4, "equivalence classes and S determines Pi"):
        systems = []
        for m in range(1, 6):
            for n in range(1, 6):
                if m + n <= 6:
                    systems.append((build(SuperType("GL", m, n)), 1))
        for m in range(1, 5):
            for n in range(1, 5):
                if m + n <= 5:
                    systems.append((build(SuperType("B", m, n)), 1))
                    if m == n:
                        systems.append((build(
                            SuperType("B", m, n, sharp_choice="B_side")), 1))
        for m, n in [(1, 2), (2, 2), (1, 3), (2, 3), (1, 4)]:
            systems.append((build(SuperType("D", m, n)), 1))
        for m, n in [(2, 1), (3, 1), (3, 2)]:
            systems.append((build(SuperType("D", m, n)), 2))
        for rs, count in systems:
            classes = equivalence_classes(rs)
            assert len(classes) == count, (rs.stype.label(), len(classes))
            assert _pi_determined_by_s(rs), rs.stype.label()


def test_criterion_5_lemma_suite():
    with _criterion(5, "lemma suite"):
        systems = _fixture_systems()
        for rs in systems:
            # orbit geometry of the even Weyl group, sampled exhaustively
            # over small coefficient boxes
            assert classical_dominant_check(rs), rs.stype.label()
            assert classical_dichotomy_check(rs), rs.stype.label()
            assert classical_regular_cone_check(rs), rs.stype.label()
            for _, pair in standard_pairs(rs):
                assert simple_norms_nonnegative(pair), pair.key()
                assert rho_descent_holds(pair), pair.key()
                assert stabilizer_matches_zero_pairing_reflections(pair), \
                    pair.key()
                if eps_symmetry_applicable(pair):
                    assert eps_symmetry_rank(pair) == \
                        eps_symmetry_expected(rs), pair.key()
            # the symmetry rank statement must not pass vacuously
            assert eps_symmetry_applicable(standard_pair(rs, "step2")) or \
                rs.family not in ("GL",)
        # rho moves by beta under the odd reflection at beta, for every
        # isotropic simple root of every simple system
        shifts = 0
        for rs in systems:
            for sys in enumerate_simple_systems(rs):
                for beta in sys.isotropic_simples:
                    assert odd_reflection(sys, beta).rho == sys.rho + beta
                    shifts += 1
        assert shifts > 0
        # every exchange move preserves the alternating sum
        moves = 0
        for rs in systems:
            pairs = enumerate_admissible_pairs(rs)
            series = {p.key(): rhs_closed(p, 8) for p in pairs}
            for pair in pairs:
                for gamma, gp in second_type_moves(pair):
                    moved = second_type_move(pair, gamma, gp)
                    diff = series[pair.key()].eq_report(series[moved.key()])
                    assert diff is None, (rs.stype.label(), str(gamma),
                                          str(gp), diff)
                    moves += 1
        assert moves > 0


def test_criterion_5_regular_cone_check_builds_each_orbit_once(monkeypatch):
    regular = []    # one entry per orbit built: is it a regular orbit?
    original = groups.orbit

    def counting(lam, group):
        out = original(lam, group)
        regular.append(len(out) == len(group))
        return out

    monkeypatch.setattr(groups, "orbit", counting)
    monkeypatch.setattr(identity, "orbit", counting)
    samples = 0
    for rs in _fixture_systems():
        frame = even_frame(rs)
        samples += 2 * len(coefficient_box(frame))
        assert classical_regular_cone_check(rs), rs.stype.label()
    # one orbit per sample: the 437 regular samples' orbits are not
    # rebuilt for the cone test
    assert len(regular) == samples == 1016
    assert sum(regular) == 437


def test_criterion_6_regular_orbits():
    with _criterion(6, "regular orbits and xi coefficients"):
        singletons = [build(SuperType("GL", 2, 1)), build(SuperType("GL", 3, 2)),
                      build(SuperType("C", n=2)), build(SuperType("C", n=3))]
        for rs in singletons:
            reps = regular_orbit_scan(rs, H=10)
            frame = standard_pair(rs, "step2").system
            assert reps == [frame.rho0]
        for k in (2, 3):
            rs = build(SuperType("GL", k, k))
            reps = regular_orbit_scan(rs, H=10)
            assert reps == expected_regular_orbit_reps(rs, H=10)
            assert len(reps) > 1
        for n in (1, 2, 3):
            rs = build(SuperType("GL", n, n))
            for s in range(5):
                assert lhs_xi_coefficient(rs, s) == (-1) ** (s * n), (n, s)
        for n in (1, 2, 3, 4):
            assert xi_uniqueness(build(SuperType("GL", n, n))), n


def test_criterion_7_skew_invariance_and_relations():
    with _criterion(7, "skew invariance and generator relations"):
        for stype, variant in _FIXTURES:
            pair = standard_pair(build(stype), variant)
            ok, detail = skew_invariance_check(pair)
            # with no even root outside Delta#, W = W# and there is
            # nothing to check (C, gl(m|1), D(1,2)); the rest must pass
            trivial = not (pair.rs.positive_even - pair.rs.sharp)
            assert ok is (None if trivial else True), \
                (stype.label(), variant, detail)
        # paired transpositions fix Y whenever S holds two or more roots
        for stype in [SuperType("GL", 2, 2), SuperType("GL", 3, 2),
                      SuperType("GL", 3, 3), SuperType("B", 2, 2),
                      SuperType("B", 2, 2, sharp_choice="B_side"),
                      SuperType("D", 2, 2)]:
            pair = standard_pair(build(stype), "step2")
            products = partner_products(pair)
            assert products, stype.label()
            for w in products:
                assert y_fixed_by(pair, w), stype.label()
        # B: flipping the last eps and the last delta fixes the tail Y
        for stype in [SuperType("B", 1, 1),
                      SuperType("B", 1, 1, sharp_choice="B_side"),
                      SuperType("B", 2, 1), SuperType("B", 1, 2),
                      SuperType("B", 2, 2),
                      SuperType("B", 2, 2, sharp_choice="B_side")]:
            rs = build(stype)
            pair = standard_pair(rs, "step3")
            w = reflection(rs.eps(rs.m)).compose(
                reflection(rs.delta(rs.n).scale(2)))
            assert y_fixed_by(pair, w), stype.label()
        # D with the sharp component on the eps side: the triple flip
        # shifts Y by e^{-beta0}, the sum with one denominator dropped
        # vanishes, and (1 + s_{delta_n}) X = 0
        for m, n in [(2, 1), (3, 1), (3, 2)]:
            rs = build(SuperType("D", m, n))
            pair = standard_pair(rs, "step3")
            w = reflection(rs.eps(m - n)).compose(
                reflection(rs.eps(m))).compose(
                reflection(rs.delta(n).scale(2)))
            beta0 = rs.delta(n) - rs.eps(m)
            zero = rs.eps(1) - rs.eps(1)
            assert y_shifts_by(pair, w, -beta0), (m, n)
            assert dropped_denominator_sum_vanishes(pair, beta0, zero), (m, n)
            s_d = reflection(rs.delta(n).scale(2))
            acted = expand_raw(acted_sum(closed_form_sum(pair), s_d),
                               pair.system, 8)
            assert acted.eq_report(rhs_closed(pair, 8).scale(-1)) is None, \
                (m, n)
        # D with the sharp component on the delta side: the external
        # delta flips fix X outright
        for m, n in [(1, 2), (2, 2), (1, 3), (2, 3)]:
            rs = build(SuperType("D", m, n))
            pair = standard_pair(rs, "step2")
            X = rhs_closed(pair, 8)
            merged = closed_form_sum(pair)
            flips = external_delta_flips(rs)
            assert flips, (m, n)
            for sigma in flips:
                assert expand_raw(acted_sum(merged, sigma), pair.system,
                                  8).eq_report(X) is None, (m, n, sigma)
        # D with a sum root in the tail: the paired flip on the last two
        # eps and delta coordinates fixes Y
        rs = build(SuperType("D", 3, 2))
        pair = standard_pair(rs, "step3_prime")
        w = reflection(rs.eps(rs.m - 1) + rs.eps(rs.m)).compose(
            reflection(rs.delta(rs.n - 1) - rs.delta(rs.n)))
        assert y_fixed_by(pair, w)

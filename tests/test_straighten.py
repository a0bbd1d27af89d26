"""The straightening kernel against its oracles, and the skew check on it.

`straighten` is checked against reflection to the dominant chamber
(`oracles.reflect_to_dominant`), the row-staged `Numerator` against the
whole product straightened once, and the skew check against mutants.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superdenom import identity, straighten
from superdenom.errors import StructuralError
from superdenom.groups import _gather, sharp_group
from superdenom.identity import skew_invariance_check, verify
from superdenom.roots import WEYL_TYPES, SuperType, build
from superdenom.simple import (AdmissiblePair, enumerate_admissible_pairs,
                               standard_pair)
from superdenom.straighten import Numerator
from superdenom.weights import Weight

from oracles import reflect_to_dominant, window_skew_check


@st.composite
def _tuple_and_kind(draw):
    kind = draw(st.sampled_from("ABCD"))
    rank = draw(st.integers(1, 5))
    return draw(st.lists(st.integers(-4, 4), min_size=rank,
                         max_size=rank)), kind


@settings(deadline=None, max_examples=400)
@given(_tuple_and_kind())
def test_straighten_matches_reflection_to_the_dominant_chamber(case):
    # small entries make zeros, repeated absolute values and odd counts of
    # negative entries common; the key, the sign and None must all agree
    xs, kind = case
    assert straighten.straighten(tuple(xs), kind, range(len(xs))) == \
        reflect_to_dominant(tuple(xs), kind)


def test_straighten_acts_on_the_given_coordinates_only():
    raw = (1, -3, 7, 2, -5)
    assert straighten.straighten(raw, "B", (1, 3)) == ((1, 3, 7, 2, -5), -1)
    assert straighten.straighten(raw, "A", (0, 2, 4)) == ((7, -3, 1, 2, -5),
                                                          -1)
    assert straighten.straighten(raw, "D", (1, 4)) == ((1, 5, 7, 2, 3), -1)
    assert straighten.straighten(raw, "C", (0, 3, 2)) == ((7, -3, 1, 2, -5),
                                                          -1)
    assert straighten.straighten((0, 2), "C", (0, 1)) is None
    assert straighten.straighten((0, -2), "D", (0, 1)) == ((2, 0), -1)


@pytest.mark.parametrize("stype", [
    SuperType("GL", 3, 2), SuperType("B", 3, 1), SuperType("B", 1, 3),
    SuperType("D", 3, 1), SuperType("D", 2, 3), SuperType("C", n=3)])
def test_straightening_undoes_w_sharp_on_a_regular_weight(stype):
    # the rule of W#'s type sends every w(lam), w in W#, back to lam with
    # sign sgn(w): the type rules are exactly the group that X sums over
    rs = build(stype)
    kind = WEYL_TYPES[rs.family][0]
    rho0 = standard_pair(rs, "step2").system.rho0
    images = set()
    for w in sharp_group(rs):
        image = w.apply(rho0).doubled
        images.add(image)
        assert straighten.straighten(image, kind, range(rs.m)) == (
            rho0.doubled, w.sgn())
    assert len(images) == len(sharp_group(rs))


_SMALL = (
    [SuperType("GL", m, n) for m in range(1, 5) for n in range(1, 6 - m)]
    + [SuperType("B", m, n) for m in range(1, 5) for n in range(1, 6 - m)
       if m != n]
    + [SuperType("B", n, n, sharp_choice=side) for n in (1, 2)
       for side in ("B_side", "C_side")]
    + [SuperType("D", m, n) for m in range(1, 5) for n in range(1, 6 - m)]
    + [SuperType("C", n=n) for n in (2, 3, 4)])


def _unstaged(pair) -> dict:
    """f expanded on tuple keys, then straightened once under all of W#,
    each eps block by reflection (`oracles.reflect_to_dominant`)."""
    frame = pair.system
    m = frame.m
    kind = WEYL_TYPES[pair.rs.family][0]
    start = (frame.rho + frame.rho1).doubled
    odd = set(frame.pos_odd) - set(pair.S)
    f = {start: 1}
    for beta in sorted(b.doubled for b in odd):
        out = dict(f)
        for k, c in f.items():
            k = tuple(x - y for x, y in zip(k, beta))
            out[k] = out.get(k, 0) + c
        f = out
    memo, out = {}, {}
    for k, c in f.items():
        if k[:m] not in memo:
            memo[k[:m]] = reflect_to_dominant(k[:m], kind)
        got = memo[k[:m]]
        if got is not None and c:
            key = got[0] + k[m:]
            out[key] = out.get(key, 0) + got[1] * c
    return {k: c for k, c in out.items() if c}


def _unpacked(num) -> dict:
    return {tuple(num._digits(k, num.m + num.n)): c
            for k, c in num.terms.items()}


def test_staged_straightening_matches_the_unstaged_product():
    # every admissible pair with m+n <= 5 (in the normalized embedding)
    count = 0
    for stype in _SMALL:
        rs = build(stype)
        for pair in enumerate_admissible_pairs(rs):
            assert _unpacked(Numerator(pair.system, pair.system.rho,
                                       pair.S)) == _unstaged(pair), \
                (stype.label(), str(pair.S))
            count += 1
    assert count > 200


@pytest.mark.parametrize("stype,peak", [
    (SuperType("GL", 5, 5), 960), (SuperType("D", 5, 3), 2868),
    (SuperType("B", 3, 3, sharp_choice="B_side"), 1008)])
def test_row_staging_keeps_the_support_small(monkeypatch, stype, peak):
    # straightening before each row keeps the peak far below the 2^k
    # monomials of the whole product (2^20, 2^27 and 2^18 here)
    # each factor is one call of the packed shift-add kernel
    sizes = []
    original = straighten._shift_add

    def recording(*args):
        out = original(*args)
        sizes.append(len(out))
        return out

    monkeypatch.setattr(straighten, "_shift_add", recording)
    pair = standard_pair(build(stype), "step2")
    Numerator(pair.system, pair.system.rho, pair.S)
    assert max(sizes) == peak


@pytest.mark.parametrize("fam,m,n", [
    ("GL", 2, 2), ("GL", 3, 3), ("B", 2, 2), ("D", 3, 2)])
def test_a_shift_by_a_delta_root_fails_skew_at_every_height(fam, m, n):
    # W# fixes delta_1 - delta_2, so both sides of the identity move alike
    # and only skewness sees the shift; straightening reads no height, so
    # verify reports it at H = 0 too
    pair = standard_pair(build(SuperType(fam, m, n)), "step2")
    rs = pair.rs
    pair.system.rho = pair.system.rho + (rs.delta(1) - rs.delta(2))
    ok, witness = skew_invariance_check(pair)
    assert ok is False and witness["generator"]
    for H in range(7):
        assert verify(pair, H).checks["skew_invariance"] is False


@pytest.mark.parametrize("stype", [
    SuperType("GL", 3, 3), SuperType("B", 2, 2), SuperType("B", 3, 2),
    SuperType("D", 3, 2)])
def test_a_kernel_that_flips_one_sign_fails_skew(monkeypatch, stype):
    # X itself is skew, but the flipped St(f) is not: the check fails, and
    # verify reports its witness, the least differing straightened key
    pair = standard_pair(build(stype), "step2")
    assert verify(pair, H=5).equal
    original = Numerator.__init__

    def flipped(self, frame, exponent, S):
        original(self, frame, exponent, S)
        key = min(self.terms)
        self.terms[key] = -self.terms[key]

    monkeypatch.setattr(Numerator, "__init__", flipped)
    ok, witness = skew_invariance_check(pair)
    assert ok is False
    assert set(witness) == {"straightened", "left", "right", "generator"}
    # the witness is the first failing generator's least differing key,
    # found here on tuple keys
    num = Numerator(pair.system, pair.system.rho, pair.S)
    terms = _unpacked(num)
    for root, g in identity._w2_generators(pair.rs):
        moved = {_gather(g.src, k): c for k, c in terms.items()}
        diffs = sorted(k for k in moved.keys() | terms.keys()
                       if moved.get(k, 0) != g.sgn() * terms.get(k, 0))
        if diffs:
            break
    assert witness == {"straightened": str(Weight(diffs[0], pair.rs.m)),
                       "left": str(moved.get(diffs[0], 0)),
                       "right": str(g.sgn() * terms.get(diffs[0], 0)),
                       "generator": str(root)}
    report = verify(pair, H=5)
    assert report.checks["skew_invariance"] is False
    assert report.first_discrepancy == witness


def test_an_s_outside_the_odd_roots_is_refused():
    pair = standard_pair(build(SuperType("GL", 2, 2)), "step2")
    rs = pair.rs
    for S in (pair.S + (pair.S[0],), pair.S + (rs.eps(1) - rs.eps(2),)):
        with pytest.raises(StructuralError, match="no odd root"):
            Numerator(pair.system, pair.system.rho, S)


def test_a_negative_element_of_s_moves_into_the_exponent():
    # 1/(1 + e^{beta}) = e^{-beta}/(1 + e^{-beta}): negating beta in S is
    # shifting rho by -beta; that sum is no longer skew, and the window
    # oracle, which sees the mismatch on the window, fails too
    pair = standard_pair(build(SuperType("GL", 2, 2)), "step2")
    beta = pair.S[0]
    negated = AdmissiblePair((-beta,) + pair.S[1:], pair.system)
    frame = pair.system
    got = Numerator(frame, frame.rho, negated.S).terms
    assert got == Numerator(frame, frame.rho - beta, pair.S).terms
    ok, witness = skew_invariance_check(negated)
    assert ok is False
    assert set(witness) == {"straightened", "left", "right", "generator"}
    assert window_skew_check(negated, 6)[0] is False

"""Property tests over random admissible pairs of small systems.

Each example draws a system, a truncation height and one admissible pair
from the exhaustive enumeration, then checks the identity, the three
oracles for X against each other, and the paper's move invariance.
"""

from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from superdenom.groups import (SignedPermutation, sharp_ball, sharp_group,
                               weyl_generators)
from superdenom.identity import (_alternating_sum, closed_form_sum,
                                 cross_multiplied_check,
                                 dropped_denominator_sum_vanishes,
                                 exchange_preserves_sum, phi_data,
                                 rhs_closed, rhs_expanded,
                                 skew_invariance_check, verify, y_fixed_by)
from superdenom.roots import SuperType, build
from superdenom.series import expand_raw, multiply
from superdenom.simple import (derive, enumerate_admissible_pairs,
                               odd_reflection, pair_neighbors,
                               second_type_move, second_type_moves)
from superdenom.weights import Weight, coordinate_order

from oracles import acted_sum, height, window_skew_check

_SYSTEMS = (
    [SuperType("GL", m, n) for m in range(1, 6) for n in range(6 - m)]
    + [SuperType("B", m, n) for m in (1, 2) for n in (0, 1, 2) if m != n]
    + [SuperType("B", n, n, sharp_choice=side) for n in (1, 2)
       for side in ("B_side", "C_side")]
    + [SuperType("D", m, n) for m, n in ((2, 1), (1, 2), (2, 2), (3, 1))]
    + [SuperType("C", n=n) for n in (2, 3)]
)


@lru_cache(maxsize=None)
def _pairs(stype: SuperType) -> tuple:
    return tuple(enumerate_admissible_pairs(build(stype)))


@st.composite
def _pair_and_height(draw, max_height=5):
    pairs = _pairs(draw(st.sampled_from(_SYSTEMS)))
    return draw(st.sampled_from(pairs)), draw(st.integers(0, max_height))


@settings(deadline=None, max_examples=40)
@given(_pair_and_height())
def test_random_pair_identity_oracles_and_moves(case):
    pair, H = case
    report = verify(pair, H)
    assert report.equal
    # skewness is checked under W_2 only, and left out where W_2 is trivial
    trivial = not (pair.rs.positive_even - pair.rs.sharp)
    assert report.checks == dict.fromkeys(
        ("lhs_equals_rhs_closed", "expansion_matches_closed_form")
        + (() if trivial else ("skew_invariance",)), True)
    assert ("nothing to check" in report.note) is trivial
    assert report.first_discrepancy is None
    # e^rho itself has coefficient 1, so the series are never empty
    assert report.lhs_terms > 0
    assert cross_multiplied_check(pair)[0]
    # X does not depend on the pair: each neighbour's W#-sum, expanded in
    # this pair's frame, is the same series
    X = rhs_closed(pair, H)
    for nb in pair_neighbors(pair):
        moved = expand_raw(closed_form_sum(nb), pair.system, H)
        assert moved.eq_report(X) is None, (str(nb.S), H)


@settings(deadline=None, max_examples=40)
@given(_pair_and_height(), st.lists(st.integers(0, 7), max_size=8))
def test_random_reflection_walks_match_derive(case, picks):
    # each odd reflection transforms its parent's root table; deriving the
    # reached Pi from scratch must give the same positive set, rho and table
    sys = case[0].system
    for pick in picks:
        isotropic = sys.isotropic_simples
        if not isotropic:
            break
        sys = odd_reflection(sys, isotropic[pick % len(isotropic)])
        fresh = derive(sys.simple_roots, sys.rs)
        assert (sys.positive_roots, sys.rho, sys._root_steps) \
            == (fresh.positive_roots, fresh.rho, fresh._root_steps)


def _mu_accumulate(acc, base, steps, sgn_w, H):
    """Tuple-keyed phi/|w| expansion: sgn_w (-1)^{sum mu} at base + mu.steps."""
    def rec(idx, key, sign):
        if idx == len(steps):
            if sum(key) <= H:
                acc[key] = acc.get(key, 0) + sign
            return
        step = steps[idx]
        cur, flip = key, sign
        while sum(cur) <= H:
            rec(idx + 1, cur, flip)
            cur = tuple(a + b for a, b in zip(cur, step))
            flip = -flip
    rec(0, base, sgn_w)


def _per_term(pair) -> list:
    """(raw key, sgn w, multiply chain) of each term sgn(w) w(Y), w in W#.

    The per-term pipeline on Weights: every term built with
    `SignedPermutation.apply`, each denominator that is not a positive
    root of the frame negated and added to the exponent, and the term
    expanded as a chain of its own, its factors in the order of S.
    """
    frame = pair.system
    out = []
    for w in sharp_group(pair.rs):
        exponent, denoms = w.apply(frame.rho), []
        for b in pair.S:
            wb = w.apply(b)
            if not frame.is_positive_root(wb):
                assert frame.is_positive_root(-wb)
                exponent, wb = exponent + wb, -wb
            denoms.append(wb)
        key = (w.apply(frame.rho).doubled,
               tuple(sorted(w.apply(b).doubled for b in pair.S)))
        out.append((key, w.sgn(),
                    ({frame.cone_key(frame.rho - exponent): w.sgn()},
                     [(frame.cone_key(g), None) for g in denoms])))
    return out


@settings(deadline=None, max_examples=40)
@given(_pair_and_height(max_height=6))
def test_height_culling_drops_only_terms_past_h(case):
    # expand_raw and rhs_expanded skip work past H before any solve; the
    # references below do every solve and let truncation drop the keys
    pair, H = case
    frame = pair.system
    for key, sign, chain in _per_term(pair):
        codec, packed = multiply(H, [chain])
        assert dict(expand_raw({key: sign}, frame, H).items_sorted()) == (
            {} if codec is None else codec.unpack(packed))
    acc = {}
    for w in sharp_group(pair.rs):
        base, steps = phi_data(w, pair, frame.cone_key(
            frame.rho - w.apply(frame.rho)))
        images = [w.apply(b) for b in pair.S]
        negative = [wb for wb in images if not frame.is_positive_root(wb)]
        assert base == frame.cone_key(frame.rho - w.apply(frame.rho) - sum(
            negative, Weight.zero(frame.m, frame.n)))
        assert steps == [frame.cone_key(-wb if wb in negative else wb)
                         for wb in images]
        _mu_accumulate(acc, base, steps, w.sgn(), H)
    assert dict(rhs_expanded(pair, H).items_sorted()) == {
        k: v for k, v in acc.items() if v}


@settings(deadline=None, max_examples=40)
@given(_pair_and_height(max_height=6))
def test_raw_expander_matches_the_per_term_pipeline(case):
    # the oracle is the per-term pipeline on Weights (`_per_term`): every
    # W# term built, normalized and expanded as a multiply chain of its own
    pair, H = case
    frame = pair.system
    codec, packed = multiply(H, [chain for _, _, chain in _per_term(pair)])
    want = {} if codec is None else codec.unpack(packed)
    got = expand_raw(closed_form_sum(pair), frame, H)
    assert dict(got.items_sorted()) == {k: v for k, v in want.items() if v}


@settings(deadline=None, max_examples=40)
@given(_pair_and_height(max_height=6), st.data())
def test_closed_form_verdicts_hold_on_the_expansion(case, data):
    # a True closed-form verdict is a proof, so the truncated expansions
    # must agree.  g is one or two of W's simple reflections: on these
    # systems no single one fixes Y, while about a fifth of the products
    # of two distinct ones do
    pair, H = case
    frame, rs = pair.system, pair.rs
    gens = [g for _, g in weyl_generators(rs)]
    if gens:
        g = data.draw(st.sampled_from(gens))
        if data.draw(st.booleans()):
            g = g.compose(data.draw(st.sampled_from(gens)))
        y = {(frame.rho.doubled,
              tuple(sorted(b.doubled for b in pair.S))): 1}
        if y_fixed_by(pair, g):
            assert expand_raw(acted_sum(y, g), frame, H).eq_report(
                expand_raw(y, frame, H)) is None
    if not pair.S:
        return
    beta = data.draw(st.sampled_from(pair.S))
    shift = data.draw(st.sampled_from(
        [Weight.zero(rs.m, rs.n)] + [b.scale(k) for b in pair.S
                                     for k in (1, -1)]))
    if dropped_denominator_sum_vanishes(pair, beta, shift):
        assert expand_raw(_alternating_sum(
            sharp_group(rs), frame.rho + shift,
            [b for b in pair.S if b != beta]), frame, H).nonzero_count() == 0
    moves = second_type_moves(pair)
    if moves:
        gamma, gp = data.draw(st.sampled_from(moves))
        if exchange_preserves_sum(pair, gamma, gp):
            moved = second_type_move(pair, gamma, gp)
            assert rhs_closed(pair, H).eq_report(rhs_closed(moved, H)) is None


@settings(deadline=None, max_examples=60)
@given(_pair_and_height(), st.data())
def test_simple_coordinates_agree_on_combinations_of_roots(case, data):
    # the height row, the solve and its inverse, and the cone test, on a
    # random integer combination of roots of the pair's frame
    pair, _ = case
    frame = pair.system
    zero = Weight.zero(frame.m, frame.n)
    roots = sorted(pair.rs.all_roots(), key=coordinate_order) or [zero]
    terms = data.draw(st.lists(st.tuples(st.sampled_from(roots),
                                         st.integers(-3, 3)), max_size=4))
    w = sum((root.scale(c) for root, c in terms), zero)
    key = frame._raw_cone_key(w.doubled)
    assert height(frame, w.doubled) == sum(key)
    assert frame.cone_key(w) == key
    assert frame.weight(key) == w
    coords = frame.cone(w)
    assert (coords is None) is any(c < 0 for c in key)
    assert coords is None or coords == key


@settings(deadline=None, max_examples=60)
@given(_pair_and_height(max_height=12), st.data())
def test_sharp_ball_is_the_height_filter_of_w_sharp(case, data):
    # the pruned walk against the filter of the whole group, signs too,
    # with rho shifted by a root (often off the dominant chamber) or not;
    # below height 0 the identity is outside the ball, and only the walk's
    # start at rho's straightening finds the rest
    pair, H = case
    frame = pair.system
    roots = sorted(frame.positive_roots, key=coordinate_order)
    shift = data.draw(st.sampled_from([None] + roots))
    scale = data.draw(st.sampled_from([1, -1, 3, -3]))
    rho = frame.rho
    try:
        if shift is not None:
            frame.rho = rho + shift.scale(scale)
        heights = [(w, w.sgn(), sum(frame.cone_key(
            frame.rho - w.apply(frame.rho)))) for w in sharp_group(pair.rs)]
        # past the top height the ball is all of W#
        top = max(h for _, _, h in heights)
        for bound in (H, H - 3, top):
            ball = sharp_ball(pair, bound)
            want = {w: sign for w, sign, h in heights if h <= bound}
            assert len(ball) == len(want)
            assert {w: w.sgn() for w in ball} == want
    finally:
        frame.rho = rho


@settings(deadline=None, max_examples=60)
@given(_pair_and_height(max_height=12), st.data())
def test_sharp_ball_carries_the_keys_of_rho_minus_w_rho(case, data):
    # the keyed walk against W# filtered by solved keys: the ball, its
    # signs (parity recomputed from the gather tuple) and every carried
    # key, with rho shifted by a root or not, so the walk also starts
    # from a v other than 1
    pair, H = case
    frame = pair.system
    roots = sorted(frame.positive_roots, key=coordinate_order)
    shift = data.draw(st.sampled_from([None] + roots))
    rho = frame.rho
    try:
        if shift is not None:
            frame.rho = rho + shift.scale(data.draw(st.sampled_from([1, -2])))
        keys = {w: frame.cone_key(frame.rho - w.apply(frame.rho))
                for w in sharp_group(pair.rs)}
        ball = sharp_ball(pair, H)
    finally:
        frame.rho = rho
    want = {w: key for w, key in keys.items() if sum(key) <= H}
    assert {w: w.sgn() for w in ball} == {
        w: SignedPermutation(w.src, w.m).sgn() for w in want}
    assert ball == want
    assert all(type(c) is int for key in ball.values() for c in key)


@settings(deadline=None, max_examples=60)
@given(_pair_and_height(max_height=6), st.data())
def test_straightened_skew_matches_the_window_oracle(case, data):
    # the window oracle merges the whole W#-sum and expands each acted sum
    # that the raw keys do not settle.  On an admissible pair both pass;
    # with rho shifted by a root, a mismatch the oracle sees on the window
    # fails the check too, which also fails where the mismatch lies above
    # H.  The check's witness is always a straightened key
    pair, H = case
    frame = pair.system
    roots = sorted(pair.rs.all_roots(), key=coordinate_order)
    shift = data.draw(st.sampled_from([None] + roots))
    rho = frame.rho
    try:
        if shift is not None:
            frame.rho = rho + shift
        got, want = skew_invariance_check(pair), window_skew_check(pair, H)
    finally:
        frame.rho = rho
    if shift is None:
        assert got == want and got[0] is not False
    elif want[0] is False:
        assert got[0] is False
    if got[0] is False:
        assert set(got[1]) == {"straightened", "left", "right", "generator"}

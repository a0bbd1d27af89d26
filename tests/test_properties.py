"""Property tests over random admissible pairs of small systems.

Each example draws a system, a truncation height and one admissible pair
from the exhaustive enumeration, then checks the identity, the three
oracles for X against each other, and the paper's move invariance.
"""

from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from superdenom.groups import sharp_ball, sharp_group
from superdenom.identity import (closed_form_sum, closed_form_terms,
                                 cross_multiplied_check, phi_data,
                                 rhs_closed, rhs_expanded, verify)
from superdenom.roots import SuperType, build
from superdenom.series import expand_raw, expand_terms, multiply, normalize
from superdenom.simple import enumerate_admissible_pairs, pair_neighbors
from superdenom.weights import Weight, coordinate_order

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
        moved = expand_terms(closed_form_terms(nb), pair.system, H)
        assert moved.eq_report(X) is None, (str(nb.S), H)


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


@settings(deadline=None, max_examples=40)
@given(_pair_and_height(max_height=6))
def test_height_culling_drops_only_terms_past_h(case):
    # expand_terms and rhs_expanded skip work past H before any solve; the
    # references below do every solve and let truncation drop the keys
    pair, H = case
    frame = pair.system
    for term in closed_form_terms(pair):
        nt = normalize(term, frame)
        base = frame.cone_key(frame.rho - nt.exponent)
        want = multiply(H, [({base: nt.coeff},
                             [(frame.cone_int(g), None) for g in nt.denoms])])
        codec, packed = want
        assert dict(expand_terms([term], frame, H).items_sorted()) == (
            {} if codec is None else codec.unpack(packed))
    acc = {}
    for w in sharp_group(pair.rs):
        base, steps = phi_data(w, pair)
        images = [w.apply(b) for b in pair.S]
        negative = [wb for wb in images if not frame.is_positive_root(wb)]
        assert base == frame.cone_key(frame.rho - w.apply(frame.rho) - sum(
            negative, Weight.zero(frame.m, frame.n)))
        assert steps == [frame.cone_int(-wb if wb in negative else wb)
                         for wb in images]
        _mu_accumulate(acc, base, steps, w.sgn(), H)
    assert dict(rhs_expanded(pair, H).items_sorted()) == {
        k: v for k, v in acc.items() if v}


@settings(deadline=None, max_examples=40)
@given(_pair_and_height(max_height=6))
def test_raw_expander_matches_the_per_term_pipeline(case):
    # the oracle is the pipeline expand_raw replaced: every W# term built,
    # normalized as a GeometricTerm, and expanded as a multiply chain of
    # its own, its factors in the order of its denominators
    pair, H = case
    frame = pair.system
    chains = []
    for term in closed_form_terms(pair):
        nt = normalize(term, frame)
        chains.append(({frame.cone_key(frame.rho - nt.exponent): nt.coeff},
                       [(frame.cone_int(g), None) for g in nt.denoms]))
    codec, packed = multiply(H, chains)
    want = {} if codec is None else codec.unpack(packed)
    got = expand_raw(closed_form_sum(pair), frame, H)
    assert dict(got.items_sorted()) == {k: v for k, v in want.items() if v}


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
            assert [(w, w.sgn()) for w in sharp_ball(pair, bound)] == [
                (w, sign) for w, sign, h in heights if h <= bound]
    finally:
        frame.rho = rho

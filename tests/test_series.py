from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from superdenom.errors import DomainError, StructuralError
from superdenom.groups import reflection, sharp_ball, sharp_group, weyl_group
from superdenom.identity import (_alternating_sum, closed_form_sum,
                                 phi_data, rhs_closed, rhs_expanded,
                                 qn_standard_set, qn_system)
from superdenom.roots import SuperType, build
from superdenom.series import (FormalSeries, _accumulate, _Packing,
                               expand_raw, multiply, normalize, positive_step)
from superdenom.simple import even_frame, standard_pair, standard_pairs
from superdenom.weights import Weight

from oracles import (acted_sum, dump_lines, multiply_chain_by_chain,
                     reference_product)


def _gl21():
    rs = build(SuperType("GL", 2, 1))
    return rs, standard_pair(rs, "step2").system


def _raw(exponent, *denoms) -> tuple:
    """The raw key of e^exponent / prod(1 + e^{-d}): doubled tuples."""
    return exponent.doubled, tuple(sorted(d.doubled for d in denoms))


def _normal(frame, exponent, *steps) -> tuple:
    """A key of the normal form: the simple coordinates of rho minus the
    exponent, the sorted steps."""
    return frame.cone_key(frame.rho - exponent), tuple(sorted(steps))


def _add(a, b):
    """a + b, both packed into their joint window first."""
    codec, mine, theirs = a._joint(b)
    return a._with(codec, _accumulate(dict(mine), theirs.items()))


def _tuples(window) -> dict:
    """`multiply`'s (codec, packed data) on coordinate tuples."""
    codec, data = window
    return {} if codec is None else codec.unpack(data)


def test_geometric_term_normalization():
    # the normal form keys each term on the simple coordinates of rho
    # minus its exponent and the sorted simple coordinates of its
    # denominators made positive: beta = e1 - d1 is (0, 1) and
    # gamma = d1 - e2 is (1, 0) in gl(2|1)'s step2 frame
    rs, frame = _gl21()
    beta = rs.eps(1) - rs.delta(1)
    zero = Weight.zero(2, 1)
    # 1/(1 + e^{beta}) = e^{-beta}/(1 + e^{-beta})
    assert normalize({_raw(zero, -beta): 1}, frame) \
        == {_normal(frame, -beta, (0, 1)): 1}
    # a positive denominator only trades for its steps; a mixed key's
    # steps are sorted
    assert normalize({_raw(zero, beta): 1}, frame) \
        == {_normal(frame, zero, (0, 1)): 1}
    gamma = rs.delta(1) - rs.eps(2)
    assert frame.is_positive_root(gamma)
    assert normalize({_raw(zero, beta, -gamma): 2}, frame) \
        == {_normal(frame, -gamma, (1, 0), (0, 1)): 2}
    with pytest.raises(StructuralError, match="not a root"):
        normalize({_raw(zero, beta.scale(2)): 1}, frame)


def test_act_moves_exponent_and_denoms():
    rs, frame = _gl21()
    s = reflection(rs.eps(1) - rs.eps(2))
    beta = rs.eps(1) - rs.delta(1)
    assert acted_sum({_raw(rs.eps(1), beta): 3}, s) \
        == {_raw(rs.eps(2), rs.eps(2) - rs.delta(1)): 3}


def test_canonical_terms_merge_and_cancel():
    # e^{rho+b}/(1+e^{b}) normalizes onto the key of e^{rho}/(1+e^{-b});
    # the keys are solved from rho, so an exponent off the span of
    # gl(2|1)'s simple roots, such as e1, is refused
    rs, frame = _gl21()
    beta, rho = rs.eps(1) - rs.delta(1), frame.rho
    a, b = _raw(rho, beta), _raw(rho + beta, -beta)
    assert normalize({a: 1, b: -1}, frame) == {}
    assert normalize({a: 1, b: Q(1, 2)}, frame) \
        == {_normal(frame, rho, (0, 1)): Q(3, 2)}
    with pytest.raises(StructuralError, match="outside"):
        normalize({_raw(rs.eps(1), beta): 1}, frame)


def test_canonical_terms_decide_equality_if_not_only_if():
    # e^rho/(1+e^{-b}) + e^{rho-b}/(1+e^{-b}) - e^rho is the zero function
    rs, frame = _gl21()
    beta = rs.delta(1) - rs.eps(2)
    assert frame.is_positive_root(beta)
    rho = frame.rho
    merged = {_raw(rho, beta): 1, _raw(rho - beta, beta): 1, _raw(rho): -1}
    assert len(normalize(merged, frame)) == 3
    assert expand_raw(merged, frame, 10).nonzero_count() == 0
    two = {k: merged[k] for k in list(merged)[:2]}
    assert expand_raw(two, frame, 10).nonzero_count() == 1


def test_expand_single_odd_factor():
    # e^0/(1 + e^{-b}) expands with alternating signs along b
    rs, frame = _gl21()
    beta = rs.eps(1) - rs.delta(1)
    series = expand_raw({_raw(Weight.zero(2, 1), beta): 1}, frame, 4,
                        offset=Weight.zero(2, 1))
    coeffs = [series.coefficient_at(beta.scale(-k)) for k in range(5)]
    assert coeffs == [1, -1, 1, -1, 1]


def test_a_coefficient_past_the_height_raises():
    # a weight past H was never computed; one below the window reads 0
    rs, frame = _gl21()
    beta = rs.eps(1) - rs.delta(1)
    zero = Weight.zero(2, 1)
    series = expand_raw({_raw(zero, beta): 1}, frame, 4, offset=zero)
    assert [series.coefficient_at(beta.scale(-k)) for k in range(5)] \
        == [1, -1, 1, -1, 1]
    with pytest.raises(DomainError, match="past the truncation height"):
        series.coefficient_at(beta.scale(-5))
    assert series.codec.lo == (0, 0)
    assert series.coefficient_at(beta) == 0                  # key (0, -1)
    assert series.coefficient_at(rs.eps(2) - rs.eps(1)) == 0  # key (1, 1)
    empty = expand_raw({}, frame, 4, offset=zero)
    assert empty.codec is None and empty.coefficient_at(zero) == 0
    with pytest.raises(DomainError):
        empty.coefficient_at(beta.scale(-5))


def _keyed(frame, H, data):
    """A series with offset 0 holding tuple-keyed data, packed by multiply."""
    return FormalSeries(frame, H, Weight.zero(frame.m, frame.n),
                        multiply(H, [(data, [])]))


def test_eq_report_and_add_across_windows():
    # b starts below key 0, so the two are re-packed into the joint window
    # lo = (-1, -1) before they compare.  The witness is the least
    # (height, key tuple): among the height-1 differences, (-1, 2) comes
    # first, although (2, -1) packs lower
    rs, frame = _gl21()
    a = _keyed(frame, 4, {(1, 0): 1, (0, 1): 2, (1, 1): 3})
    b = _keyed(frame, 4, {(-1, 2): 1, (2, -1): 1, (1, 1): 3})
    assert a.codec.lo == (0, 0) and b.codec.lo == (-1, -1)
    # the windows differ, so both sides are re-packed; b's lo is the joint
    # one, so its re-packed data reads as it did
    codec, mine, theirs = a._joint(b)
    assert (codec.lo, codec.H) == (b.codec.lo, 4)
    assert mine == codec.pack(a.codec.unpack(a.data))
    assert theirs == b.data and theirs is not b.data
    assert b._joint(a)[1:] == (theirs, mine)
    witness = {"exponent": "-2*e1 - e2 + 3*d1", "mu": ["-1", "2"],
               "height": "1", "left": "0", "right": "1"}
    assert a.eq_report(b) == witness
    assert b.eq_report(a) == dict(witness, left="1", right="0")
    assert _add(a, b).items_sorted() == [
        ((-1, 2), 1), ((0, 1), 2), ((1, 0), 1), ((2, -1), 1), ((1, 1), 6)]
    assert _add(a, b).eq_report(_add(b, a)) is None
    # 1/(1+e^{-beta}) + e^beta/(1+e^{-beta}) = e^beta, at key (0, -1)
    beta = rs.eps(1) - rs.delta(1)
    zero = Weight.zero(2, 1)
    first, second = (expand_raw({_raw(e, beta): 1}, frame, 4, offset=zero)
                     for e in (zero, beta))
    assert second.codec.lo == (0, -1)
    assert first.eq_report(second) == {
        "exponent": "e1 - d1", "mu": ["0", "-1"], "height": "-1",
        "left": "0", "right": "1"}
    total = _add(first, second)
    assert total.items_sorted() == [((0, -1), 1)]
    assert total.eq_report(_keyed(frame, 4, {(0, -1): 1})) is None
    # a series with no window is empty and fits in any other
    empty = expand_raw({}, frame, 4, offset=zero)
    assert empty.eq_report(empty.scale(1)) is None
    assert _add(empty, second).eq_report(second) is None
    assert empty.eq_report(first)["mu"] == ["0", "0"]


def test_add_scale_and_eq_report():
    rs, frame = _gl21()
    beta = rs.eps(1) - rs.delta(1)
    base = expand_raw({_raw(Weight.zero(2, 1), beta): 1}, frame, 3,
                      offset=Weight.zero(2, 1))
    doubled = base.scale(2)
    summed = _add(base, base)
    assert doubled.eq_report(summed) is None
    bumped = base.scale(1)
    bumped.data[next(iter(bumped.data))] += 1
    report = doubled.eq_report(bumped)
    assert report is not None and "height" in report


def test_mul_binomial_and_geometric_inverse():
    rs, frame = _gl21()
    alpha = rs.eps(1) - rs.eps(2)
    ones = _ones(frame, 6)
    grown = ones.mul_geometric(alpha)   # 1/(1 + e^{-alpha})
    shrunk = grown.mul_binomial(1, alpha)
    assert shrunk.eq_report(ones) is None
    assert grown.coefficient_at(alpha.scale(-3)) == -1
    assert grown.coefficient_at(alpha.scale(-2)) == 1


def _ones(frame, H):
    return _keyed(frame, H, {(0,) * len(frame.simple_roots): 1})


def _not_positive(frame):
    a, b = frame.simple_roots
    return [-b,                     # a negative root
            a - b,                  # simple coordinates (1, -1)
            Weight.zero(2, 1)]      # height 0


def test_mul_geometric_rejects_a_root_that_is_not_positive():
    # a step of height <= 0 never reaches the end of the window
    rs, frame = _gl21()
    for root in _not_positive(frame):
        with pytest.raises(StructuralError):
            _ones(frame, 4).mul_geometric(root)


def test_mul_binomial_rejects_a_root_that_is_not_positive():
    # a negative step would write keys of negative height
    rs, frame = _gl21()
    for root in _not_positive(frame):
        for sign in (1, -1):
            with pytest.raises(StructuralError):
                _ones(frame, 4).mul_binomial(sign, root)


def test_positive_step_refuses_every_weight_off_the_positive_roots():
    rs, frame = _gl21()
    alpha, beta = rs.eps(1) - rs.eps(2), rs.eps(1) - rs.delta(1)
    assert frame.is_positive_root(alpha) and frame.is_positive_root(beta)
    # positive combinations that are no root, though their simple
    # coordinates are nonnegative integers of height >= 1
    for weight in (alpha.scale(2), alpha + beta):
        assert min(frame.cone_key(weight)) >= 0
        with pytest.raises(StructuralError, match="not a positive root"):
            positive_step(frame, weight)
    # a negative root, and a weight outside the simple-root span
    for weight in (-alpha, -beta, rs.eps(1)):
        with pytest.raises(StructuralError, match="not a positive root"):
            positive_step(frame, weight)


@pytest.mark.parametrize("stype", [
    SuperType("GL", 2, 1), SuperType("B", 1, 1), SuperType("D", 2, 1),
    SuperType("C", n=2), SuperType("Q", n=3)])
def test_positive_step_reads_the_root_table(stype):
    rs = build(stype)
    if rs.family == "Q":                # q(n) expands in its even frame
        frames = [even_frame(rs)]
    else:
        frames = [pair.system for _, pair in standard_pairs(rs)]
    for frame in frames:
        assert frame.positive_roots
        for root in frame.positive_roots:
            step = positive_step(frame, root)
            assert step == frame._root_steps[root.doubled][0]
            # the table agrees with a solve of its own
            assert step == frame.cone_key(root)
            assert all(type(c) is int and c >= 0 for c in step)
            assert sum(step) >= 1


_KEYS = st.tuples(st.integers(-2, 4), st.integers(-2, 4), st.integers(0, 3))
_STEPS = st.tuples(st.integers(0, 2), st.integers(0, 2),
                   st.integers(0, 2)).filter(any)


# keys at height H = -1; a step that lands on the top digit, B - 1, where
# a base one smaller would carry; a key exactly at height H
@example(data={(-2, 1, 0): 1}, step=(1, 0, 0), H=-1)
@example(data={(0, 0, 0): 1, (2, 0, 0): -1}, step=(1, 0, 0), H=3)
@example(data={(-2, 4, 0): 2, (1, 1, 1): 1}, step=(0, 0, 1), H=3)
@settings(max_examples=200, deadline=None)
@given(data=st.dictionaries(_KEYS, st.integers(-2, 2), max_size=8),
       step=_STEPS, H=st.integers(-1, 9))
def test_geometric_matches_the_termwise_expansion(data, step, H):
    # sum_j (-1)^j e^{-j*step} applied to each key on its own, no
    # cancellation shortcuts: the height layers must agree exactly
    factors = [(step, None)]
    assert _tuples(multiply(H, [(data, factors)])) == reference_product(
        H, [(data, factors)])


@example(data={(-2, 1, 0): 1}, step=(1, 0, 0), sign=1, H=-1)
@example(data={(0, 0, 0): 1, (2, 0, 0): -1}, step=(1, 0, 0), sign=-1, H=3)
@settings(max_examples=100, deadline=None)
@given(data=st.dictionaries(_KEYS, st.integers(-2, 2), max_size=8),
       step=_STEPS, sign=st.sampled_from((1, -1)), H=st.integers(-1, 9))
def test_binomial_matches_the_termwise_expansion(data, step, sign, H):
    # series data holds no zero coefficients
    data = {k: v for k, v in data.items() if v}
    chain = [(data, [(step, sign)])]
    assert _tuples(multiply(H, chain)) == reference_product(H, chain)
    # a window this tall truncates nothing
    tall = max(map(sum, data), default=0) + sum(step)
    assert _tuples(multiply(tall, chain)) == reference_product(tall, chain)


_CHAINS = st.lists(st.tuples(
    st.dictionaries(_KEYS, st.integers(-2, 2), max_size=4),
    st.lists(st.tuples(_STEPS, st.sampled_from((1, -1, None))),
             max_size=3)), max_size=4)


# two chains that cancel key for key beside one that does not; a chain
# wholly past H beside live ones; lo taken from both chains' negative keys
@example(chains=[({(0, 0, 0): 1}, [((1, 0, 0), None), ((0, 1, 0), 1)]),
                 ({(0, 0, 0): -1}, [((1, 0, 0), None), ((0, 1, 0), 1)]),
                 ({(0, 1, 0): 1}, [((0, 0, 1), -1)])], H=3)
@example(chains=[({(4, 4, 0): 1}, [((1, 0, 0), 1)]),
                 ({(0, 0, 0): 2}, [((0, 1, 0), None), ((1, 0, 0), -1)])],
         H=3)
@example(chains=[({(-2, 1, 0): 1}, [((1, 0, 0), 1)]),
                 ({(1, -2, 1): 1}, [((0, 1, 0), None), ((0, 0, 1), -1)])],
         H=4)
@settings(max_examples=100, deadline=None)
@given(chains=_CHAINS, H=st.integers(-1, 9))
def test_multiply_is_the_sum_of_each_chain_alone(chains, H):
    # one shared window gives what each chain gives in its own, and each
    # chain alone is its factors applied termwise in the order given
    want = {}
    for data, factors in chains:
        alone = _tuples(multiply(H, [(data, factors)]))
        assert alone == reference_product(H, [(data, factors)])
        _accumulate(want, alone.items())
    assert _tuples(multiply(H, chains)) == want


@st.composite
def _chains_sharing_steps(draw):
    """Chains whose binomial and geometric factors draw on a few steps.

    Coefficients may be zero and keys may lie past H.
    """
    pool = draw(st.lists(_STEPS, min_size=1, max_size=3))
    factor = st.tuples(st.sampled_from(pool), st.sampled_from((1, -1, None)))
    return draw(st.lists(st.tuples(
        st.dictionaries(_KEYS, st.integers(-2, 2), max_size=4),
        st.lists(factor, max_size=4)), max_size=5))


def _window(pair) -> tuple:
    codec, data = pair
    return None if codec is None else (codec.lo, codec.H), data


# a zero coefficient and a key past H beside kept keys; a chain wholly
# past H between two live ones; one step repeated within and across chains
@example(chains=[({(0, 0, 0): 0, (1, 1, 0): 2, (4, 4, 3): 1},
                  [((1, 0, 0), None), ((1, 0, 0), 1)])], H=3)
@example(chains=[({(0, 0, 0): 1}, [((0, 1, 0), -1)]),
                 ({(4, 4, 0): 1}, [((1, 0, 0), 1)]),
                 ({(-1, 0, 0): 2}, [((0, 1, 0), None), ((0, 1, 0), None)])],
         H=2)
@settings(max_examples=100, deadline=None)
@given(chains=_chains_sharing_steps(), H=st.integers(-1, 9))
def test_multiply_packs_the_window_once_as_each_chain_alone(chains, H):
    # packing every chain's keys in one call and reading each step from
    # one dict gives, packed key for packed key, what packing and
    # multiplying each chain on its own gives
    assert _window(multiply(H, chains)) \
        == _window(multiply_chain_by_chain(H, chains))


@st.composite
def _layered_chains(draw):
    """(H, 1-4 chains): starting keys at several heights, lo negative.

    lo itself starts the first chain and one key lies exactly at height
    H; the factors are binomials of both signs and geometric ones, and
    one of them is a step of height H - sum(lo), which carries lo to the
    last height layer.
    """
    H = draw(st.integers(0, 8))
    neg = draw(st.tuples(st.integers(-2, -1), st.integers(-2, 0),
                         st.integers(-1, 0)))
    top = draw(st.tuples(st.integers(0, 3), st.integers(0, 3)))
    at_H = top + (H - sum(top),)
    keys = draw(st.lists(st.tuples(st.integers(-2, 4), st.integers(-2, 4),
                                   st.integers(-1, 3)), max_size=6))
    lo = tuple(map(min, zip(neg, at_H, *[k for k in keys if sum(k) <= H])))
    tall = H - sum(lo)
    split = draw(st.integers(0, tall))
    kinds = st.sampled_from((1, -1, None))
    factor = st.tuples(_STEPS, kinds)
    starts = [lo, neg, at_H] + keys
    count = draw(st.integers(1, 4))
    chains = []
    for i in range(count):
        data = {k: draw(st.integers(-2, 2).filter(bool))
                for k in starts[i::count]}
        chains.append((data, draw(st.lists(factor, max_size=4))))
    at = draw(st.integers(0, len(chains[0][1])))
    chains[0][1].insert(at, ((split, tall - split, 0), draw(kinds)))
    return H, chains


# lo = (-1, -1, 0) alone, carried to height H by a geometric factor and by
# a binomial; two chains whose keys at H meet a tall step's image
@example(case=(3, [({(-1, -1, 0): 1}, [((5, 0, 0), None)])]))
@example(case=(3, [({(-1, -1, 0): 1}, [((2, 3, 0), -1), ((0, 1, 0), None)]),
                   ({(1, 1, 1): 2, (0, 0, 0): -1},
                    [((1, 0, 0), 1), ((0, 0, 1), None)])]))
@settings(max_examples=150, deadline=None)
@given(case=_layered_chains())
def test_multiply_matches_the_termwise_reference_on_every_layer(case):
    # the layered kernel against tuple-keyed products term by term, and
    # against each chain packed and multiplied on its own
    H, chains = case
    assert _tuples(multiply(H, chains)) == reference_product(H, chains)
    assert _window(multiply(H, chains)) \
        == _window(multiply_chain_by_chain(H, chains))


def test_multiply_and_rhs_expanded_pack_keys_and_steps_once(monkeypatch):
    keys, steps = [], []
    pack_keys, pack_step = _Packing.keys, _Packing.step

    def counting_keys(codec, batch):
        keys.append(len(batch))
        return pack_keys(codec, batch)

    def counting_step(codec, step):
        steps.append(step)
        return pack_step(codec, step)

    monkeypatch.setattr(_Packing, "keys", counting_keys)
    monkeypatch.setattr(_Packing, "step", counting_step)
    chains = [({(0, 0, 0): 1, (1, 0, 0): 2, (0, 0, 1): 0},
               [((1, 0, 0), None), ((0, 1, 0), 1)]),
              ({(0, 1, 0): 1}, [((1, 0, 0), -1), ((0, 1, 0), None)]),
              ({(9, 0, 0): 1}, [((0, 0, 1), 1)])]
    codec, data = multiply(4, chains)
    # the zero and the chain past H are dropped before the one call; the
    # skipped chain's step is never read
    assert keys == [3] and sorted(steps) == [(0, 1, 0), (1, 0, 0)]
    assert data == multiply_chain_by_chain(4, chains)[1]
    # a non-integral key of a later chain still raises from the one call
    with pytest.raises(StructuralError, match="not integral"):
        multiply(2, [({(0, 0): 1}, []), ({(Q(1, 2), Q(1, 2)): 1}, [])])
    pair = standard_pair(build(SuperType("B", 2, 2)), "step2")
    keys.clear(), steps.clear()
    expanded = rhs_expanded(pair, 6)
    assert len(keys) == 1 and len(steps) == len(set(steps))
    monkeypatch.undo()
    kept = [phi_data(w, pair, mu) for w, mu in sharp_ball(pair, 6).items()]
    kept = [(base, s) for base, s in kept if sum(base) <= 6]
    assert keys[0] == len(kept)
    assert set(steps) == {step for _, s in kept for step in s}
    assert expanded.eq_report(rhs_closed(pair, 6)) is None


@st.composite
def _windows(draw):
    """(lo, H, keys): keys >= lo of height <= H, some exactly at H."""
    rank = draw(st.integers(1, 4))
    lo = tuple(draw(st.lists(st.integers(-3, 3), min_size=rank,
                             max_size=rank)))
    H = sum(lo) + draw(st.integers(0, 6))
    keys = []
    for _ in range(draw(st.integers(1, 6))):
        digits = draw(st.lists(st.integers(0, H - sum(lo)), min_size=rank,
                               max_size=rank))
        # trim to height <= H, then top the first digit up to height H
        while sum(digits) > H - sum(lo):
            digits[digits.index(max(digits))] -= 1
        if draw(st.booleans()):
            digits[0] += H - sum(lo) - sum(digits)
        keys.append(tuple(a + d for a, d in zip(lo, digits)))
    return lo, H, keys


@settings(max_examples=100, deadline=None)
@given(_windows())
def test_packed_keys_round_trip_in_height_order(case):
    lo, H, keys = case
    codec = _Packing(lo, H)
    packed = [codec.key(k) for k in keys]
    assert all(0 <= p < codec.limit for p in packed)
    assert codec.unpack(dict.fromkeys(packed, 1)) == dict.fromkeys(keys, 1)
    for a, pa in zip(keys, packed):
        for b, pb in zip(keys, packed):
            if sum(a) < sum(b):
                assert pa < pb
    # a key one step past height H packs strictly past the limit: its
    # lower digits are not all zero
    for k in keys:
        if sum(k) == H:
            bumped = (k[0] + 1,) + k[1:]
            assert codec.key(bumped) > codec.limit
            assert codec.key(k) + codec.step((1,) + (0,) * (len(k) - 1)) \
                == codec.key(bumped)


def test_a_key_below_the_window_raises_instead_of_wrapping():
    codec = _Packing((0, -1), 4)
    assert codec.unpack({codec.key((0, 4)): 1}) == {(0, 4): 1}
    # (-1, 5) has height 4 as well, but would pack onto a wrong key
    for bad in ((-1, 5), (3, -2)):
        with pytest.raises(StructuralError, match="outside the packed"):
            codec.key(bad)
    with pytest.raises(StructuralError, match="not integral"):
        codec.key((Q(1, 2), Q(3, 2)))
    for step in ((1, -1), (0, 0)):
        with pytest.raises(StructuralError, match="not positive"):
            codec.step(step)
    with pytest.raises(StructuralError, match="no packed window"):
        _Packing((1, 1), 1)
    # multiply takes lo from the data, so every key of it packs
    assert _tuples(multiply(0, [({(-3, 0): 1, (0, 0): 1},
                                 [((1, 0), None)])])) \
        == {(-3, 0): 1, (-2, 0): -1, (-1, 0): 1}


def test_incompatible_frames_rejected():
    rs, frame = _gl21()
    other = standard_pair(build(SuperType("GL", 2, 1)), "step2").system
    a = FormalSeries(frame, 3, offset=Weight.zero(2, 1))
    b = FormalSeries(other, 4, offset=Weight.zero(2, 1))
    with pytest.raises(StructuralError):
        a.eq_report(b)


def test_expand_terms_is_sum_of_each_term_expanded_alone():
    rs = build(SuperType("B", 2, 1))
    pair = standard_pair(rs, "step2")
    frame = pair.system
    terms = [(_raw(frame.rho, *pair.S), 1),
             (_raw(frame.rho - rs.eps(1), *pair.S), -1)]
    total = expand_raw(dict(terms), frame, 5, offset=frame.rho)
    first, second = (expand_raw(dict([t]), frame, 5, offset=frame.rho)
                     for t in terms)
    assert total.eq_report(_add(first, second)) is None
    assert total.nonzero_count() > 0


def _terms(group, exponent, denoms) -> list:
    """(raw key, sgn w) of each w(e^exponent / prod(1 + e^{-d})), unmerged.

    Built on Weights with `SignedPermutation.apply`, one term per element.
    """
    return [(_raw(w.apply(exponent), *[w.apply(d) for d in denoms]), w.sgn())
            for w in group]


def _term_by_term(terms, frame, H, offset):
    total = FormalSeries(frame, H, offset)
    for key, c in terms:
        total = _add(total, expand_raw({key: c}, frame, H, offset))
    return total


def _negated(terms):
    return [(key, -c) for key, c in terms]


def _merged(terms):
    """Raw key -> total coefficient, zeros dropped."""
    return _accumulate({}, terms)


def test_expand_terms_merges_the_q5_w_sum():
    rs = qn_system(5)
    frame = even_frame(rs)
    zero = Weight.zero(rs.m, rs.n)
    terms = _terms(weyl_group(rs), zero, qn_standard_set(rs))
    # w and w composed with the swap of S's two roots give the same term
    merged = _alternating_sum(weyl_group(rs), zero, qn_standard_set(rs))
    assert merged == _merged(terms)
    assert len(terms) == 120 and len(merged) == 60
    got = expand_raw(merged, frame, 6, zero)
    assert got.eq_report(_term_by_term(terms, frame, 6, zero)) is None
    assert got.nonzero_count() > 0


def test_expand_terms_merges_duplicated_and_cancelling_copies():
    pair = standard_pair(build(SuperType("GL", 3, 2)), "step2")
    frame = pair.system
    terms = _terms(sharp_group(pair.rs), frame.rho, pair.S)
    assert _merged(terms) == closed_form_sum(pair)
    padded = terms + terms[:4] + _negated(terms[4:9])
    merged = _merged(padded)
    # six terms: four doubled, the last two cancelled
    assert len(terms) == 6 and len(merged) == 4
    assert list(merged.values())[:4] == [2 * c for _, c in terms[:4]]
    got = expand_raw(merged, frame, 6)
    assert got.eq_report(_term_by_term(padded, frame, 6, frame.rho)) is None
    assert got.eq_report(expand_raw(_merged(terms), frame, 6)) is not None
    assert _merged(terms + _negated(terms)) == {}
    cancelled = expand_raw(_merged(terms + _negated(terms)), frame, 6)
    assert cancelled.data == {} and cancelled.H == 6


def test_dump_lines_sorted_by_height():
    rs, frame = _gl21()
    beta = rs.eps(1) - rs.delta(1)
    series = expand_raw({_raw(Weight.zero(2, 1), beta): 1}, frame, 3,
                        offset=Weight.zero(2, 1))
    lines = dump_lines(series)
    assert lines[0].startswith("1 [")
    heights = []
    for key, _ in series.items_sorted():
        heights.append(sum(key))
    assert heights == sorted(heights)


def test_golden_gl_1_1():
    rs = build(SuperType("GL", 1, 1))
    pair = standard_pair(rs, "step2")
    from superdenom.identity import rhs_closed
    got = dump_lines(rhs_closed(pair, 6))
    with open("tests/golden/gl_1_1_denominator_h6.txt") as fh:
        want = fh.read().splitlines()
    assert got == want


def test_golden_gl_2_1():
    rs = build(SuperType("GL", 2, 1))
    pair = standard_pair(rs, "step2")
    from superdenom.identity import rhs_closed
    got = dump_lines(rhs_closed(pair, 5))
    with open("tests/golden/gl_2_1_denominator_h5.txt") as fh:
        want = fh.read().splitlines()
    assert got == want


def test_a_culled_term_still_checks_its_denominators():
    rs, frame = _gl21()
    beta = rs.eps(1) - rs.delta(1)
    low = frame.rho - beta.scale(5)          # height 5, past H = 2
    assert expand_raw({_raw(low, beta): 1}, frame, 2).data == {}
    not_a_root = (rs.eps(1) - rs.eps(2)).scale(2)
    with pytest.raises(StructuralError, match="not a root"):
        expand_raw({_raw(low, not_a_root): 1}, frame, 2)


def test_a_weight_outside_the_span_still_raises():
    # gl(2|2)'s simple roots span the hyperplane of coordinate sum 0
    rs = build(SuperType("GL", 2, 2))
    frame = standard_pair(rs, "step2").system
    outside = frame.rho - rs.eps(1)
    for H in (0, 10):
        with pytest.raises(StructuralError, match="outside"):
            expand_raw({_raw(outside): 1}, frame, H)
        far = outside - (rs.eps(1) - rs.delta(1)).scale(H + 3)
        with pytest.raises(StructuralError, match="outside"):
            expand_raw({_raw(far): 1}, frame, H)


def test_expand_raw_refuses_bad_keys_culled_or_kept():
    # a key past H is culled before it is solved, yet a denominator that is
    # no root, an exponent outside the span and a base key of half-integral
    # height raise there as they do on a kept key
    rs, frame = _gl21()
    rho, beta = frame.rho, rs.eps(1) - rs.delta(1)
    not_a_root = (rs.eps(1) - rs.eps(2)).scale(2)
    a, b = frame.simple_roots
    half = a.scale(Q(1, 2))
    for lift, kept in ((Weight.zero(2, 1), 1), (beta.scale(5), 0)):
        start = rho - lift
        good = expand_raw({_raw(start, beta): 1}, frame, 2)
        assert (good.nonzero_count() > 0) is bool(kept)
        for exponent, denoms, match in (
                (start, [beta, not_a_root], "not a root"),
                (start - rs.eps(1), [beta], "outside"),
                (start - half, [beta], "not integral")):
            with pytest.raises(StructuralError, match=match):
                expand_raw({_raw(exponent, *denoms): 1}, frame, 2)
    # half-integral coordinates of integer height are refused when packed
    skew = half - b.scale(Q(1, 2))
    assert sum(frame.cone_key(skew)) == 0
    with pytest.raises(StructuralError):
        expand_raw({_raw(rho - skew, beta): 1}, frame, 2)

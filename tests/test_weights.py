from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from superdenom.errors import StructuralError
from superdenom.roots import SuperType, build
from superdenom.simple import even_frame, standard_pairs
from superdenom.weights import (Elimination, Weight, bilinear_form, form4,
                                weight_json)


def w(eps, delta=()):
    return Weight.make(eps, delta)


def test_arithmetic_and_units():
    e1 = Weight.eps_unit(1, 2, 1)
    e2 = Weight.eps_unit(2, 2, 1)
    d1 = Weight.delta_unit(1, 2, 1)
    assert (e1 + e2 - d1).coords() == (1, 1, -1)
    assert (-e1).coords() == (-1, 0, 0)
    assert e1.scale(Q(3, 2)).coords() == (Q(3, 2), 0, 0)
    assert Weight.zero(2, 1).doubled == (0, 0, 0)
    assert e1.dims() == (2, 1)


def test_mixed_dims_rejected():
    with pytest.raises(Exception):
        Weight.eps_unit(1, 2, 1) + Weight.eps_unit(1, 1, 1)


def test_bilinear_form_signature():
    # eps block positive definite, delta block negative definite, blocks orthogonal
    e1 = Weight.eps_unit(1, 2, 2)
    e2 = Weight.eps_unit(2, 2, 2)
    d1 = Weight.delta_unit(1, 2, 2)
    d2 = Weight.delta_unit(2, 2, 2)
    assert bilinear_form(e1, e1) == 1
    assert bilinear_form(e1, e2) == 0
    assert bilinear_form(d1, d1) == -1
    assert bilinear_form(d1, d2) == 0
    assert bilinear_form(e1, d1) == 0
    beta = e1 - d1
    assert bilinear_form(beta, beta) == 0  # isotropic
    assert bilinear_form(e1 + d1, e1 + d1) == 0
    assert bilinear_form(e1 - e2, e1 - e2) == 2


def test_bilinear_form_is_symmetric_and_bilinear():
    x = w((1, 2), (3,))
    y = w((0, -1), (Q(1, 2),))
    z = w((2, 0), (1,))
    assert bilinear_form(x, y) == bilinear_form(y, x)
    assert bilinear_form(x + z, y) == bilinear_form(x, y) + bilinear_form(z, y)
    assert bilinear_form(x.scale(3), y) == 3 * bilinear_form(x, y)


@settings(deadline=None)
@given(st.integers(0, 3), st.integers(0, 3), st.data())
def test_form4_is_four_times_the_form(m, n, data):
    doubled = st.lists(st.integers(-9, 9), min_size=m + n, max_size=m + n)
    x = Weight(tuple(data.draw(doubled)), m)
    y = Weight(tuple(data.draw(doubled)), m)
    assert type(form4(x, y)) is int
    assert bilinear_form(x, y) == Q(form4(x, y), 4)
    with pytest.raises(StructuralError):
        form4(x, Weight(y.doubled + (0,), m))


def test_elimination_solve():
    e1 = Weight.eps_unit(1, 2, 1)
    e2 = Weight.eps_unit(2, 2, 1)
    d1 = Weight.delta_unit(1, 2, 1)
    elim = Elimination([(e1 - e2).doubled, (e2 - d1).doubled])

    def solve(target):
        return _solve(elim, target)

    assert solve((e1 - d1).doubled) == [1, 1]
    assert solve((e1 + d1).doubled) is None
    # rational coordinates come back exactly
    assert solve((e1 - e2).scale(Q(1, 2)).doubled) == [Q(1, 2), 0]
    # ranks, the third column being the sum of the first two
    cols = [(1, -1, 0), (0, 1, -1), (1, 0, -1)]
    assert Elimination(cols[:2]).rank == 2
    assert Elimination(cols).rank == 2
    assert Elimination([]).rank == 0


def _solve(elim, target):
    """The solution vector read off `numerators`: acc/den at each pivot,
    0 at every other column; None outside the span."""
    nums = elim.numerators(target)
    if nums is None:
        return None
    x = [Q(0)] * elim.ncols
    for c, (acc, den) in zip(elim.pivots, nums):
        x[c] = Q(acc, den)
    return x


def _times(columns, x, dim):
    return tuple(sum(c[i] * xj for c, xj in zip(columns, x))
                 for i in range(dim))


@st.composite
def _columns_and_vectors(draw):
    dim = draw(st.integers(1, 4))
    entry = st.integers(-3, 3)
    vec = st.tuples(*[entry] * dim)
    columns = draw(st.lists(vec, max_size=4))
    y = draw(st.lists(entry, min_size=len(columns), max_size=len(columns)))
    return dim, columns, y, draw(vec)


@settings(deadline=None)
@given(_columns_and_vectors())
@example((3, [], [], (0, 0, 0)))
@example((3, [(1, -1, 0), (0, 1, -1)], [1, 1], (1, 0, -1)))
@example((3, [(1, -1, 0), (0, 1, -1), (1, 0, -1)], [1, 0, 2], (1, 1, 1)))
def test_elimination_solves_ranks_and_rejects(case):
    dim, columns, y, t = case
    elim = Elimination(columns)
    rows = [tuple(c[i] for c in columns) for i in range(dim)]
    assert elim.rank == Elimination(rows).rank <= min(len(columns), dim)
    # the rank counts the columns outside the span of those before them
    assert elim.rank == sum(_solve(Elimination(columns[:k]), c) is None
                            for k, c in enumerate(columns))
    # every vector in the span is solved exactly
    target = _times(columns, y, dim)
    x = _solve(elim, target)
    assert x is not None and _times(columns, x, dim) == target
    # t lies outside the span exactly when appending it raises the rank
    sol = _solve(elim, t)
    if Elimination(columns + [t]).rank > elim.rank:
        assert sol is None
    else:
        assert sol is not None and _times(columns, sol, dim) == t


def _reference_solve(columns, target):
    """Plain Fraction Gauss-Jordan: pivots in column order, free unknowns 0."""
    rows = [[Q(c[i]) for c in columns] + [Q(t)] for i, t in enumerate(target)]
    pivots = []
    for c in range(len(columns)):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        rows[r] = [v / rows[r][c] for v in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c]:
                rows[i] = [a - row[c] * b for a, b in zip(row, rows[r])]
        pivots.append(c)
    if any(row[-1] for row in rows[len(pivots):]):
        return None
    x = [Q(0)] * len(columns)
    for k, c in enumerate(pivots):
        x[c] = rows[k][-1]
    return x


@settings(deadline=None)
@given(_columns_and_vectors())
@example((2, [(2, 0), (0, 1)], [1, 1], (3, 1)))      # a half coordinate
@example((2, [(1, 0), (0, 1)], [1, -1], (1, -1)))    # a negative one
@example((2, [(1, 1)], [2], (1, 0)))                 # outside the span
def test_numerators_agree_with_a_fraction_reference(case):
    dim, columns, y, t = case
    elim = Elimination(columns)
    assert all(den > 0 for _, den in elim.transform)
    for target in (t, _times(columns, y, dim)):
        want = _reference_solve(columns, target)
        assert _solve(elim, target) == want
        nums = elim.numerators(target)
        assert (nums is None) is (want is None)
        if nums is not None:
            # sign and integrality are read off the numerators alone
            got = [want[c] for c in elim.pivots]
            assert [acc < 0 for acc, _ in nums] == [c < 0 for c in got]
            assert [acc % den == 0 for acc, den in nums] \
                == [c.denominator == 1 for c in got]


def test_each_way_out_of_the_cone():
    elim = Elimination([(2, 0), (0, 1)])
    # outside the span: a null row is nonzero
    assert Elimination([(1, 1)]).numerators((1, 0)) is None
    # a negative coordinate: the numerator carries the sign
    nums = elim.numerators((2, -1))
    assert [Q(a, d) for a, d in nums] == [1, -1] and nums[1][0] < 0
    # a half coordinate: an odd numerator over the even pivot
    assert elim.numerators((1, 1)) == [(1, 2), (1, 1)]
    # a negative pivot is normalized away
    flipped = Elimination([(-2, 0), (0, 1)])
    assert [den for _, den in flipped.transform] == [2, 1]
    assert flipped.numerators((1, 1)) == [(-1, 2), (1, 1)]


def test_pretty_printing():
    assert str(w((1, 0), (-1,))) == "e1 - d1"
    assert str(w((Q(-1, 2), 0), (Q(1, 2),))) == "-1/2*e1 + 1/2*d1"
    assert str(Weight.zero(1, 1)) == "0"


def test_weights_are_stored_doubled_in_half_integers():
    x = w((Q(3, 2), -2), (Q(-1, 2),))
    assert x.doubled == (3, -4, -1)
    assert all(type(v) is int for v in x.doubled)
    assert x.coords() == (Q(3, 2), -2, Q(-1, 2))
    assert w((1,), ()).scale(Q(1, 2)).doubled == (1,)
    assert x.scale(2).doubled == (6, -8, -2)
    assert x.scale(Q(2, 1)).doubled == (6, -8, -2)


@pytest.mark.parametrize("stype", [
    SuperType("B", 4, 3), SuperType("D", 4, 2), SuperType("C", n=5),
    SuperType("GL", 3, 2), SuperType("Q", n=4)])
def test_built_weights_hold_ints(stype):
    rs = build(stype)
    frames = [even_frame(rs)]
    if rs.family != "Q":
        frames += [pair.system for _, pair in standard_pairs(rs)]
    weights = list(rs.all_roots())
    for frame in frames:
        weights += [frame.rho0, frame.rho1, frame.rho, *frame.simple_roots]
    assert all(type(v) is int for x in weights for v in x.doubled)


@pytest.mark.parametrize("coord", [Q(1, 3), Q(1, 4), Q(-5, 6)])
def test_make_rejects_coordinates_outside_half_integers(coord):
    with pytest.raises(StructuralError):
        w((0, coord), (1,))
    with pytest.raises(StructuralError):
        w((0,), (coord,))


def test_scale_rejects_leaving_half_integers():
    odd = w((Q(1, 2), 1), ())
    with pytest.raises(StructuralError):
        odd.scale(Q(1, 2))
    with pytest.raises(StructuralError):
        w((1, 1), ()).scale(Q(1, 3))
    # a quarter of an even coordinate is fine; nothing is rounded
    assert w((2, 0), ()).scale(Q(1, 4)).coords() == (Q(1, 2), 0)


@settings(deadline=None)
@given(st.integers(0, 3), st.integers(0, 3), st.data())
def test_pretty_and_json_round_trip_through_make(m, n, data):
    coords = data.draw(st.lists(st.builds(Q, st.integers(-9, 9), st.just(2)),
                                min_size=m + n, max_size=m + n))
    x = w(coords[:m], coords[m:])
    doc = weight_json(x)
    assert w([Q(c) for c in doc["eps"]], [Q(c) for c in doc["delta"]]) == x
    assert doc == {"eps": [str(c) for c in coords[:m]],
                   "delta": [str(c) for c in coords[m:]]}
    assert _parse_pretty(x.pretty(), m, n) == x


def _parse_pretty(text, m, n):
    eps, delta = [Q(0)] * m, [Q(0)] * n
    if text != "0":
        for sign, part in zip(["+"] + text.split(" ")[1::2],
                              text.split(" ")[::2]):
            coeff, _, name = part.rpartition("*")
            if not coeff:
                coeff, name = ("-1", name[1:]) if name[0] == "-" \
                    else ("1", name)
            value = Q(coeff) * (1 if sign == "+" else -1)
            block = eps if name[0] == "e" else delta
            block[int(name[1:]) - 1] = value
    return w(eps, delta)

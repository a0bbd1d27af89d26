from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from superdenom.weights import (Elimination, Weight, bilinear_form,
                                solve_in_span)


def w(eps, delta=()):
    return Weight.make(eps, delta)


def test_arithmetic_and_units():
    e1 = Weight.eps_unit(1, 2, 1)
    e2 = Weight.eps_unit(2, 2, 1)
    d1 = Weight.delta_unit(1, 2, 1)
    assert (e1 + e2 - d1).coords() == (1, 1, -1)
    assert (-e1).coords() == (-1, 0, 0)
    assert e1.scale(Q(3, 2)).coords() == (Q(3, 2), 0, 0)
    assert Weight.zero(2, 1).is_zero()
    assert not e1.is_zero()
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


def test_solve_in_span():
    e1 = Weight.eps_unit(1, 2, 1)
    e2 = Weight.eps_unit(2, 2, 1)
    d1 = Weight.delta_unit(1, 2, 1)
    basis = [e1 - e2, e2 - d1]
    sol = solve_in_span(basis, e1 - d1)
    assert sol == [1, 1]
    assert solve_in_span(basis, e1 + d1) is None
    # rational coordinates come back exactly
    sol = solve_in_span(basis, (e1 - e2).scale(Q(1, 2)))
    assert sol == [Q(1, 2), 0]
    # ranks, the third column being the sum of the first two
    cols = [(1, -1, 0), (0, 1, -1), (1, 0, -1)]
    assert Elimination(cols[:2]).rank == 2
    assert Elimination(cols).rank == 2
    assert Elimination([]).rank == 0


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
    assert elim.rank == sum(Elimination(columns[:k]).solve(c) is None
                            for k, c in enumerate(columns))
    # every vector in the span is solved exactly
    target = _times(columns, y, dim)
    x = elim.solve(target)
    assert x is not None and _times(columns, x, dim) == target
    # t lies outside the span exactly when appending it raises the rank
    sol = elim.solve(t)
    if Elimination(columns + [t]).rank > elim.rank:
        assert sol is None
    else:
        assert sol is not None and _times(columns, sol, dim) == t


def test_in_positive_cone_rings():
    e1 = Weight.eps_unit(1, 2, 0)
    e2 = Weight.eps_unit(2, 2, 0)
    cone = Elimination([(e1 - e2).coords(), e2.coords()]).cone
    assert cone((e1 + e2).coords(), ring="integer") == (1, 2)
    # half points are rejected over the integers but not over the rationals
    half = (e1 + e2).scale(Q(1, 2))
    assert cone(half.coords(), ring="integer") is None
    assert cone(half.coords(), ring="rational") == (Q(1, 2), 1)
    # negative coordinates never pass
    assert cone((e2 - e1).coords(), ring="rational") is None


def test_pretty_printing():
    assert str(w((1, 0), (-1,))) == "e1 - d1"
    assert str(w((Q(-1, 2), 0), (Q(1, 2),))) == "-1/2*e1 + 1/2*d1"
    assert str(Weight.zero(1, 1)) == "0"

import math
from itertools import product

import pytest

from superdenom.errors import ValidationError
from superdenom.groups import weyl_group
from superdenom.roots import (WEYL_TYPES, SuperType, build, is_isotropic,
                              simple_roots, system_json)
from superdenom.weights import bilinear_form


def test_supertype_validation():
    assert SuperType("GL", 2, 1).label() == "gl(2|1)"
    assert SuperType("B", 2, 1).label() == "B(2,1)"
    assert SuperType("B", 2, 2, sharp_choice="B_side").label() == "B(2,2,B#)"
    assert SuperType("C", n=3).label() == "C(3)"
    assert SuperType("Q", n=4).label() == "Q(4)"
    with pytest.raises(ValidationError):
        SuperType("C", n=1)
    with pytest.raises(ValidationError):
        SuperType("Q", n=1)
    with pytest.raises(ValidationError):
        SuperType("B", 2, 1, sharp_choice="B_side")  # only square B offers it
    with pytest.raises(ValidationError):
        SuperType("E", 2, 1)


def test_gl_2_1_contents():
    rs = build(SuperType("GL", 2, 1))
    assert rs.family == "GL" and (rs.m, rs.n) == (2, 1)
    e1, e2, d1 = rs.eps(1), rs.eps(2), rs.delta(1)
    assert rs.positive_even == frozenset({e1 - e2})
    assert rs.odd == frozenset({e1 - d1, d1 - e1, e2 - d1, d1 - e2})
    assert rs.sharp == frozenset({e1 - e2, e2 - e1})
    assert rs.defect == 1
    assert all(is_isotropic(a) for a in rs.odd)


def test_gl_normalization_swaps_small_side():
    # gl(1|2) and gl(2|1) build the same normalized datum up to marking
    small = build(SuperType("GL", 1, 2))
    assert (small.m, small.n) == (2, 1)
    assert small.marking_mode == "N"
    assert build(SuperType("GL", 2, 1)).marking_mode == "M"


def test_b_2_1_contents():
    rs = build(SuperType("B", 2, 1))
    e1, e2, d1 = rs.eps(1), rs.eps(2), rs.delta(1)
    assert rs.family == "B_EPS"
    assert rs.positive_even == frozenset(
        {e1 - e2, e1 + e2, e1, e2, d1.scale(2)})
    # odd roots: +-eps_i +- delta_1 and the non-isotropic +-delta_1
    assert rs.odd == frozenset(
        {e1 + d1, e1 - d1, -e1 + d1, -e1 - d1,
         e2 + d1, e2 - d1, -e2 + d1, -e2 - d1, d1, -d1})
    assert rs.sharp == frozenset({e1 - e2, e2 - e1, e1 + e2, -e1 - e2,
                                  e1, -e1, e2, -e2})
    assert rs.defect == 1
    assert sum(1 for a in rs.odd if not is_isotropic(a)) == 2


def test_b_1_1_sharp_choices():
    # the square case admits both components; the delta side is the default
    default = build(SuperType("B", 1, 1))
    assert default.family == "B_DELTA"
    e1 = default.eps(1)
    assert default.sharp == frozenset({e1.scale(2), e1.scale(-2)})
    b_side = build(SuperType("B", 1, 1, sharp_choice="B_side"))
    assert b_side.family == "B_EPS"
    assert b_side.sharp == frozenset({b_side.eps(1), -b_side.eps(1)})


def test_d_families_by_shape():
    tall = build(SuperType("D", 2, 1))
    assert tall.family == "D_EPS" and (tall.m, tall.n) == (2, 1)
    e1, e2 = tall.eps(1), tall.eps(2)
    assert tall.sharp == frozenset({e1 - e2, e2 - e1, e1 + e2, -e1 - e2})
    wide = build(SuperType("D", 1, 2))
    assert wide.family == "D_DELTA" and (wide.m, wide.n) == (2, 1)
    f1, f2 = wide.eps(1), wide.eps(2)
    assert f1.scale(2) in wide.sharp and f1 + f2 in wide.sharp
    square = build(SuperType("D", 2, 2))
    assert square.family == "D_DELTA" and (square.m, square.n) == (2, 2)


def test_c_3_contents():
    rs = build(SuperType("C", n=3))
    assert rs.family == "C" and (rs.m, rs.n) == (3, 1)
    assert rs.defect == 1
    e = [rs.eps(i) for i in range(1, 4)]
    assert e[0].scale(2) in rs.sharp
    assert all(bilinear_form(a, a) == 0 for a in rs.odd)
    assert len(rs.odd) == 12


def test_q_4_contents():
    rs = build(SuperType("Q", n=4))
    assert rs.family == "Q" and (rs.m, rs.n) == (4, 0)
    assert rs.defect == 0
    assert len(rs.positive_even) == 6
    # positive definite frame: no isotropic roots at all
    assert all(bilinear_form(a, a) > 0 for a in rs.positive_even)


@pytest.mark.parametrize("fam,m,n", [
    ("GL", 3, 2), ("B", 2, 2), ("B", 3, 1), ("D", 3, 2), ("D", 2, 3),
    ("C", 1, 4),
])
def test_root_counts_and_closure(fam, m, n):
    st = SuperType(fam, m, n) if fam != "C" else SuperType("C", n=n)
    rs = build(st)
    # roots come in opposite pairs and never repeat across parities
    assert all(-a in rs.even() for a in rs.even())
    assert all(-a in rs.odd for a in rs.odd)
    assert not (rs.even() & rs.odd)
    # Delta# sits inside the even roots with positive square length
    for a in rs.sharp:
        assert a in rs.even()
        assert bilinear_form(a, a) > 0
    assert rs.positive_even <= rs.even()


def test_simple_root_extraction():
    rs = build(SuperType("B", 2, 1))
    e1, e2, d1 = rs.eps(1), rs.eps(2), rs.delta(1)
    assert set(simple_roots(rs.positive_even)) == {e1 - e2, e2, d1.scale(2)}
    assert set(simple_roots(rs.sharp & rs.positive_even)) == {e1 - e2, e2}
    assert set(simple_roots(rs.positive_even - rs.sharp)) == {d1.scale(2)}


def test_system_json_shape():
    data = system_json(build(SuperType("GL", 1, 1)))
    assert data["type"] == "gl(1|1)"
    assert data["defect"] == 1
    assert isinstance(data["odd"], list) and len(data["odd"]) == 2


def _table_types():
    """GL, B (both B(n,n) choices), D with m + n <= 6; C(2)-C(5); Q(2)-Q(7)."""
    for fam, m, n in product(("GL", "B", "D"), range(1, 7), range(6)):
        if m + n <= 6:
            choices = ("B_side", "C_side") if fam == "B" and m == n \
                else (None,)
            for choice in choices:
                yield SuperType(fam, m, n, choice)
    for n in range(2, 6):
        yield SuperType("C", n=n)
    for n in range(2, 8):
        yield SuperType("Q", n=n)


def _weyl_order(kind, k):
    return math.factorial(k) * {"A": 1, "D": 2 ** max(k - 1, 0)}.get(
        kind, 2 ** k)


def _root_count(kind, k):
    return {"A": k * (k - 1) // 2, "D": k * (k - 1)}.get(kind, k * k)


def test_weyl_types_give_the_group_orders_and_root_counts():
    # the table's two block types account for |W|, |Delta_0+| and Delta#:
    # the positive-square roots are exactly the eps block's
    for stype in _table_types():
        rs = build(stype)
        eps_kind, delta_kind = WEYL_TYPES[rs.family]
        label = stype.label()
        assert len(weyl_group(rs)) == _weyl_order(eps_kind, rs.m) \
            * _weyl_order(delta_kind, rs.n), label
        assert len(rs.positive_even) == _root_count(eps_kind, rs.m) \
            + _root_count(delta_kind, rs.n), label
        eps_roots = {a for a in rs.positive_even if not any(a.doubled[rs.m:])}
        assert rs.sharp & rs.positive_even == eps_roots, label
        assert len(eps_roots) == _root_count(eps_kind, rs.m), label

import math

import pytest

from superdenom.errors import DomainError, StructuralError
from superdenom.groups import weyl_group
from superdenom.identity import (qn_a_set, qn_a_value, qn_identity,
                                 qn_standard_set, qn_system)
from superdenom.roots import SuperType, build
from superdenom.simple import orthogonal_subsets
from superdenom.weights import Weight, bilinear_form


def test_standard_set_shape():
    rs = qn_system(5)
    S = qn_standard_set(rs)
    assert len(S) == 2
    assert S[0] == rs.eps(1) - rs.eps(5)
    assert S[1] == rs.eps(2) - rs.eps(4)
    assert all(bilinear_form(a, b) == 0 for a in S for b in S if a != b)


def test_a_values_signed():
    # the alternating count over {w : wS positive} under w(eps_i) = eps_{w(i)}
    signed = {2: 1, 3: -1, 4: 2, 5: 2, 6: 6}
    for n, a in signed.items():
        rs = qn_system(n)
        got = qn_a_value(rs, qn_standard_set(rs))
        assert got == a, (n, got)
        assert abs(got) == math.factorial(n // 2)


def test_a_set_size_consistency():
    rs = qn_system(4)
    S = qn_standard_set(rs)
    members = qn_a_set(rs, S)
    assert sum(w.sgn() for w in members) == qn_a_value(rs, S)
    assert all(all(w.apply(b) in rs.positive_even for b in S)
               for w in members)
    for n in (4, 5, 6):
        rs = qn_system(n)
        S = qn_standard_set(rs)
        assert qn_a_set(rs, S) == tuple(
            w for w in weyl_group(rs)
            if all(w.apply(b) in rs.positive_even for b in S))
    # a weight of another dimension is refused, as w.apply refuses it
    with pytest.raises(StructuralError, match="dimension"):
        qn_a_set(rs, [Weight.make([1, -1, 0, 0, 0, 0, 0])])


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_identity_holds(n):
    report, a = qn_identity(n, H=6)
    assert report.equal, report.first_discrepancy
    assert abs(a) == math.factorial(n // 2)


def test_small_sets_vanish_exhaustively():
    for n in range(2, 6):
        rs = qn_system(n)
        for size in range(0, n // 2):
            for S in orthogonal_subsets(rs.positive_even, size):
                assert qn_a_value(rs, S) == 0, (n, [str(b) for b in S])


def test_vanishing_a_still_verifies():
    # a = 0 forces the right side itself to vanish; same code path checks it
    rs = qn_system(4)
    S = (rs.eps(1) - rs.eps(2),)
    assert qn_a_value(rs, S) == 0
    report, a = qn_identity(rs, S=S, H=5)
    assert a == 0
    assert report.equal, report.first_discrepancy
    assert "vanishing" in report.note


def test_qn_guards():
    with pytest.raises(DomainError):
        qn_identity(build(SuperType("GL", 2, 1)))
    rs = qn_system(3)
    with pytest.raises(DomainError):
        qn_identity(rs, S=(rs.eps(1) + rs.eps(2),))

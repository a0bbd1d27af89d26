import math

import oracles
import pytest
from oracles import qn_a_set, qn_w_sum

from superdenom import groups, identity
from superdenom.errors import DomainError, ResourceLimitError, StructuralError
from superdenom.groups import weyl_group
from superdenom.identity import (qn_a_value, qn_identity, qn_matchings,
                                 qn_right_side, qn_standard_set, qn_system)
from superdenom.roots import SuperType, build
from superdenom.simple import even_frame, orthogonal_subsets
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
    signed = {2: 1, 3: -1, 4: 2, 5: 2, 6: 6, 7: -6, 8: 24}
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
    for n in (4, 5, 6):
        rs = qn_system(n)
        S = qn_standard_set(rs)
        assert qn_a_set(rs, S) == tuple(
            w for w in weyl_group(rs)
            if all(w.apply(b) in rs.positive_even for b in S))
    # a weight of another dimension is refused, as w.apply refuses it
    with pytest.raises(StructuralError, match="dimension"):
        qn_a_value(rs, [Weight.make([1, -1, 0, 0, 0, 0, 0])])


def test_matchings_agree_with_the_s_n_walk_exhaustively():
    # every orthogonal S of q(2)..q(6): empty, non-maximal and maximal
    sizes = set()
    for n in range(2, 7):
        rs = qn_system(n)
        frame = even_frame(rs)
        for size in range(n // 2 + 1):
            for S in orthogonal_subsets(rs.positive_even, size):
                sizes.add((n, size))
                matchings = qn_matchings(rs, S)
                assert len(matchings) == math.comb(n, 2 * size) * (
                    math.factorial(2 * size)
                    // (2 ** size * math.factorial(size)))
                a = sum(w.sgn() for w in qn_a_set(rs, S))
                assert qn_a_value(rs, S) == a, (n, S)
                got = qn_right_side(frame, matchings, 5)
                assert got.eq_report(qn_w_sum(rs, S, 5)) is None, (n, S)
    assert sizes == {(n, k) for n in range(2, 7) for k in range(n // 2 + 1)}


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


def test_overlapping_sets_are_refused():
    # a repeated or non-orthogonal S is no input, not a = 0 and "verified"
    rs = qn_system(4)
    b = rs.eps(1) - rs.eps(2)
    for S in [(b, rs.eps(2) - rs.eps(3)), (b, b), (b, rs.eps(1) - rs.eps(4))]:
        with pytest.raises(DomainError, match="orthogonal"):
            qn_a_value(rs, S)
        with pytest.raises(DomainError, match="orthogonal"):
            qn_identity(rs, S=S, H=4)
    with pytest.raises(StructuralError, match="dimension"):
        qn_identity(rs, S=(Weight.make([1, -1, 0]),), H=4)


def test_cap_is_checked_before_enumerating(monkeypatch):
    def refused(*args):
        raise AssertionError("matchings enumerated past the cap")

    monkeypatch.setattr(identity, "_matchings", refused)
    # q(16): 16!/(2^8 8!) = 2,027,025 matchings; the empty S of q(10):
    # 10! = 3,628,800 fills of one empty matching
    for n, S in [(16, None), (10, ())]:
        rs = qn_system(n)
        with pytest.raises(ResourceLimitError, match="cap"):
            qn_matchings(rs, qn_standard_set(rs) if S is None else S)


def test_a_negated_coefficient_is_reported(monkeypatch):
    original = identity.qn_matchings

    def negated(rs, S):
        out = original(rs, S)
        i = next(i for i, (c, _) in enumerate(out) if c)
        out[i] = (-out[i][0], out[i][1])
        return out

    monkeypatch.setattr(identity, "qn_matchings", negated)
    for n in (3, 4, 5):
        report, _ = qn_identity(n, H=5)
        assert report.equal is False and report.checks["identity"] is False
        assert report.first_discrepancy is not None


def test_no_group_is_enumerated(monkeypatch):
    calls = []
    for name in ("weyl_group", "enumerate_group"):
        def recording(*args, _name=name, _original=getattr(groups, name)):
            calls.append(_name)
            return _original(*args)
        for module in (groups, identity, oracles):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, recording)
    for n in range(2, 8):
        report, _ = qn_identity(n, H=5)
        assert report.equal
    assert calls == []
    # the recorders do see the S_n walk of the oracle
    qn_w_sum(qn_system(3), (), 2)
    assert calls == ["weyl_group"]

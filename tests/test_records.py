"""The value classes keep the semantics they had as dataclasses.

Equality and hashing are over the fields, instances of other classes
(tuples included) are never equal, SignedPermutation.sign takes no part,
the frozen classes refuse assignment, and constructors accept the same
positional and keyword arguments with the same defaults.
"""

import pytest

from superdenom.diagrams import SMILE, Diagram
from superdenom.errors import ValidationError
from superdenom.groups import SignedPermutation
from superdenom.identity import VerificationReport, verify
from superdenom.roots import RootSystem, SuperType, build
from superdenom.simple import AdmissiblePair, standard_pair
from superdenom.weights import Weight


def _instances():
    """(instance, a field name) for each of the six frozen classes."""
    rs = build(SuperType("GL", 2, 1))
    pair = standard_pair(rs, "step2")
    return [
        (Weight((2, 0), 1), "m"),
        (SignedPermutation((2, 1), 1, sign=-1), "sign"),
        (rs.stype, "family"),
        (rs, "defect"),
        (pair, "S"),
        (Diagram(("b", "a"), ((0, 1, SMILE),), "M"), "marks"),
    ]


@pytest.mark.parametrize("obj,name", _instances(),
                         ids=lambda v: type(v).__name__)
def test_frozen_classes_refuse_assignment(obj, name):
    before = getattr(obj, name)
    with pytest.raises(AttributeError):
        setattr(obj, name, before)
    with pytest.raises(AttributeError):
        delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert getattr(obj, name) is before


def test_equality_is_by_value_within_one_class():
    x = Weight((2, 0), 1)
    assert x == Weight((2, 0), 1) and hash(x) == hash(Weight((2, 0), 1))
    assert x != Weight((2, 0), 2)
    assert x != ((2, 0), 1)
    assert x != SignedPermutation((2, 0), 1)
    assert Weight.__eq__(x, ((2, 0), 1)) is NotImplemented
    assert len({x, Weight((2, 0), 1), SignedPermutation((2, 0), 1)}) == 2


def test_signed_permutation_sign_is_outside_equality():
    a = SignedPermutation((2, 1), 1, sign=-1)
    b = SignedPermutation((2, 1), 1)
    assert a == b and hash(a) == hash(b)
    assert a.sgn() == b.sgn() == -1
    assert repr(a) == "SignedPermutation(src=(2, 1), m=1)"


def test_constructors_take_keywords_and_defaults():
    assert SuperType(family="GL") == SuperType("GL", 1, 0, None)
    assert SuperType("B", n=2, m=2, sharp_choice="C_side").n == 2
    assert SignedPermutation(src=(1, 2), m=1).sign is None
    assert Weight(m=1, doubled=(2, 0)) == Weight((2, 0), 1)
    assert Diagram(marks=("a",), bows=(), mode="M").bows == ()
    flip = SignedPermutation(src=(-1, 2), m=1, sign=-1)
    assert flip.src == (-1, 2) and flip.sign == -1
    rs = build(SuperType("GL", 1, 1))
    pair = standard_pair(rs, "step2")
    assert AdmissiblePair(S=pair.S, system=pair.system) == pair
    assert RootSystem(**{f: getattr(rs, f) for f in RootSystem.__slots__}) \
        == rs
    assert repr(Weight((2, 0), 1)) == "Weight(doubled=(2, 0), m=1)"


@pytest.mark.parametrize("args,kw", [(("E", 1, 1), {}), (("C",), {"n": 1}),
                                     (("GL", 0, 1), {})])
def test_supertype_validates_in_init(args, kw):
    with pytest.raises(ValidationError):
        SuperType(*args, **kw)


def test_verification_report_is_mutable_and_unhashable():
    report = verify(standard_pair(build(SuperType("GL", 1, 1)), "step2"), H=2)
    assert "nothing to check" in report.note          # W_2 is trivial
    fields = {f: getattr(report, f) for f in VerificationReport.__slots__}
    copy = VerificationReport(**fields)
    assert copy == report and copy != fields
    copy.note = "changed"
    assert copy != report
    with pytest.raises(TypeError):
        hash(report)

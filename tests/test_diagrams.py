import json
from itertools import product
from pathlib import Path

import pytest

from superdenom.diagrams import (FROWN, SMILE, Diagram, available_moves,
                                 apply_move, canonical_form, canonical_frown,
                                 canonical_smile, equivalence_classes,
                                 from_pair, move_slide, move_swap,
                                 pair_from_diagram)
from superdenom.errors import DomainError, StructuralError, ValidationError
from superdenom.roots import WEYL_TYPES, SuperType, build
from superdenom import simple
from superdenom.simple import (VARIANTS, derive, enumerate_admissible_pairs,
                               isotropic_parts, make_pair, pair_from_word,
                               standard_pair)
from superdenom.weights import Weight

GOLDEN = Path(__file__).parent / "golden"


def test_validation_rules():
    d = Diagram(("b", "a", "a"), ((0, 1, SMILE),), "M")
    d.validate()
    with pytest.raises(ValidationError):
        Diagram(("b", "a"), ((0, 1, SMILE), (0, 1, SMILE)), "M").validate()
    with pytest.raises(ValidationError):
        Diagram(("a", "a"), ((0, 1, SMILE),), "M").validate()   # equal marks
    with pytest.raises(ValidationError):
        Diagram(("b", "a"), ((0, 2, SMILE),), "M").validate()   # not adjacent
    with pytest.raises(ValidationError):
        Diagram(("b", "a", "b"), ((0, 1, SMILE),), "M").validate()  # free b
    with pytest.raises(ValidationError):
        Diagram(("b", "a", "a"), ((1, 2, SMILE),), "M").validate()  # a-a bow
    with pytest.raises(ValidationError):
        # frown may only open the diagram with an 'a'
        Diagram(("b", "a", "a"), ((0, 1, FROWN),), "M").validate()


def test_render_styles():
    d = Diagram(("a", "b", "a"), ((0, 1, FROWN),), "M").validate()
    assert d.render() == "a⌢ba"
    assert d.render(style="ascii") == "a(^)ba"
    s = Diagram(("b", "a"), ((0, 1, SMILE),), "M").validate()
    assert s.render() == "b⌣a"
    assert s.render(style="ascii") == "b(_)a"


def test_from_pair_gl21():
    rs = build(SuperType("GL", 2, 1))
    pair = make_pair([rs.eps(1) - rs.delta(1)],
                     derive([rs.delta(1) - rs.eps(2),
                             rs.eps(1) - rs.delta(1)], rs))
    d = from_pair(pair)
    assert d.render() == "ab⌣a"
    canon, word = canonical_form(d)
    assert canon.render() == "b⌣aa"
    assert word == (("slide", 0), ("swap", 0))


def test_moves_mechanics():
    d = Diagram(("a", "b", "a"), ((1, 2, SMILE),), "M").validate()
    swapped = move_swap(d, 0)
    assert swapped.render() == "aa⌣b"
    slid = move_slide(d, 0)
    assert slid.render() == "a⌣ba"
    assert move_slide(slid, 0).render() == d.render()   # slides invert
    with pytest.raises(DomainError):
        move_swap(Diagram(("a", "b", "a"), ((0, 1, FROWN),), "M").validate(), 0)
    frown = Diagram(("a", "b", "a"), ((0, 1, FROWN),), "M").validate()
    assert not [mv for mv in available_moves(frown) if mv[0] == "swap"
                and frown.bows[mv[1]][2] == FROWN]


def test_available_moves_and_apply():
    d = Diagram(("a", "b", "a", "a"), ((1, 2, SMILE),), "M").validate()
    moves = set(available_moves(d))
    assert ("swap", 0) in moves or ("swap", 1) in moves
    for mv in moves:
        nd = apply_move(d, mv)
        nd.validate()


def test_canonical_targets():
    assert canonical_smile(3, 2, "M").render() == "b⌣ab⌣aa"
    assert canonical_frown(3, 2, "M").render() == "a⌢bb⌣aa"
    assert canonical_smile(2, 2, "N").render() == "b⌣ab⌣a"


def test_equivalence_class_counts():
    assert len(equivalence_classes(build(SuperType("GL", 3, 2)))) == 1
    assert len(equivalence_classes(build(SuperType("B", 2, 2)))) == 1
    assert len(equivalence_classes(build(SuperType("D", 2, 2)))) == 1
    two = equivalence_classes(build(SuperType("D", 2, 1)))
    assert [d.render() for d in two] == ["a⌢ba", "b⌣aa"]
    with pytest.raises(DomainError):
        equivalence_classes(build(SuperType("C", n=2)))


def test_classes_build_one_elimination_per_drawn_system(monkeypatch):
    # D(4,2): 36 pairs over 17 systems are drawn; only the seed's derive
    # and each reflected system's height row build an elimination
    built = []
    real = simple.Elimination
    monkeypatch.setattr(simple, "Elimination",
                        lambda cols: built.append(cols) or real(cols))
    assert len(equivalence_classes(build(SuperType("D", 4, 2)))) == 2
    assert len(built) == len(set(map(tuple, built))) == 17


def _positive_difference_order(pair) -> list:
    """The coordinates in increasing order of the functional, with no solve.

    For k != l, x_k - x_l is a root, positive exactly when f is larger at
    k; so k's place is the number of l with x_k - x_l positive.
    """
    rs, positive = pair.rs, pair.system.positive_roots
    units = [Weight.unit(k, rs.m, rs.n) for k in range(rs.m + rs.n)]
    place = [sum(u - v in positive for v in units) for u in units]
    assert sorted(place) == list(range(len(units)))
    return sorted(range(len(units)), key=place.__getitem__)


def _diagram_types():
    for size in range(2, 7):
        for m in range(size + 1):
            n = size - m
            if m and n:
                yield SuperType("GL", m, n)
            if m and m == n:
                yield SuperType("B", n, n, sharp_choice="B_side")
                yield SuperType("B", n, n, sharp_choice="C_side")
            elif m:
                yield SuperType("B", m, n)
            if m >= 2 and n:
                yield SuperType("D", m, n)


def test_from_pair_orders_by_positive_differences():
    # every pair of gl, B (both B(n,n) choices) and D with m + n <= 6 is
    # drawn in the order of the positive differences; a pair is refused
    # only when it has more b's, a sum bow, or an S root whose ends are
    # not neighbours in that order
    drawn = 0
    for st in _diagram_types():
        rs = build(st)
        for pair in enumerate_admissible_pairs(rs):
            order = _positive_difference_order(pair)
            place = {k: p for p, k in enumerate(order)}
            ends = [sorted((place[k] for k, v in enumerate(b.doubled) if v))
                    for b in pair.S]
            try:
                d = from_pair(pair)
            except ValidationError:
                assert rs.m < rs.n or any(q != p + 1 for p, q in ends) \
                    or any(isotropic_parts(b)[2] == "sum" for b in pair.S)
                continue
            drawn += 1
            assert d.marks == tuple("a" if k < rs.m else "b" for k in order)
            assert [b[:2] for b in d.bows] == sorted(map(tuple, ends))
    assert drawn == 443
    with pytest.raises(DomainError):
        from_pair(standard_pair(build(SuperType("C", n=2)), "step2"))


def test_d21_pair_diagram_table():
    rs = build(SuperType("D", 2, 1))
    e, d = rs.eps, rs.delta
    want = {
        frozenset({(-e(1) + d(1)).coords()}): "aa⌣b",
        frozenset({(-e(2) - d(1)).coords()}): "a⌢ba",
        frozenset({(-e(2) + d(1)).coords()}): "a⌣ba",
        frozenset({(e(2) + d(1)).coords()}): "a⌢ba",
        frozenset({(e(1) - d(1)).coords()}): "ab⌣a",
        frozenset({(e(2) - d(1)).coords()}): "b⌣aa",
    }
    got = {}
    for pair in enumerate_admissible_pairs(rs):
        key = frozenset(b.coords() for b in pair.S)
        got[key] = from_pair(pair).render()
    assert got == want


def test_round_trip_through_reconstruction():
    # pair-level round trip where the ladder is rigid ({1..m+n})
    for st in [SuperType("GL", 3, 2), SuperType("GL", 2, 2),
               SuperType("B", 2, 1), SuperType("B", 2, 2)]:
        rs = build(st)
        for pair in enumerate_admissible_pairs(rs):
            d = from_pair(pair)
            assert pair_from_diagram(d, rs).key() == pair.key()


def test_round_trip_d_families_diagram_level():
    # a D frown picture is shared with its odd reflection at the sum root,
    # so reconstruction pins the positive-sum reading; the picture survives
    for st in [SuperType("D", 2, 1), SuperType("D", 3, 2),
               SuperType("D", 2, 2)]:
        rs = build(st)
        for pair in enumerate_admissible_pairs(rs):
            try:
                d = from_pair(pair)
            except ValidationError:
                continue   # sum root away from the front: no diagram
            rebuilt = pair_from_diagram(d, rs)
            assert from_pair(rebuilt).render() == d.render()
            if not d.has_frown():
                assert rebuilt.key() == pair.key()


def test_reconstruction_rejects_foreign_diagram():
    rs = build(SuperType("GL", 2, 1))
    alien = Diagram(("a", "b", "a"), ((0, 1, FROWN),), "M").validate()
    with pytest.raises((ValidationError, StructuralError, DomainError)):
        pair_from_diagram(alien, rs)


def test_moves_commute_with_pair_moves():
    # applying a diagram move then reconstructing lands on a neighbour pair
    rs = build(SuperType("GL", 2, 2))
    for pair in enumerate_admissible_pairs(rs):
        d = from_pair(pair)
        for mv in available_moves(d):
            nd = apply_move(d, mv)
            neighbour = pair_from_diagram(nd, rs)
            from superdenom.simple import pair_neighbors
            keys = {p.key() for p in pair_neighbors(pair, same_kind_only=True)}
            assert neighbour.key() in keys


def _standard_types():
    """GL, B (both sharp choices on B(n,n)) and D with m + n <= 7; C(2)-C(5)."""
    for fam, m, n in product(("GL", "B", "D"), range(1, 8), range(7)):
        if m + n > 7 or (fam, m, n) == ("D", 1, 0):
            continue
        choices = ("B_side", "C_side") if fam == "B" and m == n else (None,)
        for choice in choices:
            yield SuperType(fam, m, n, choice)
    for n in range(2, 6):
        yield SuperType("C", n=n)


def _word(rs, variant):
    """The diagram of a standard variant, with k = m - n free a's."""
    k, n = rs.m - rs.n, rs.n
    if variant == "second_class":
        return "a⌢b" + "a" * k + "b⌣a" * (n - 1)
    if variant == "step3_prime":
        return "a⌢b" + "a⌣b" * (n - 1) + "a" * k
    if variant == "step3" and rs.family != "GL" \
            or rs.family in ("B_EPS", "B_DELTA") and k == 0:
        return "a⌣b" * n + "a" * k
    return "a" * k + "b⌣a" * n


def test_standard_pairs_match_golden_and_draw_their_words():
    # every variant standard_pair accepts, with its pair key; from_pair
    # orders the coordinates by the functional, so the word check does not
    # lean on how standard_pair builds the pair, and the key pins the D
    # frown pairs, whose picture is shared with the odd reflection at the
    # sum root
    got = []
    for st in _standard_types():
        rs = build(st)
        for variant in VARIANTS:
            try:
                pair = standard_pair(rs, variant)
            except DomainError:
                continue
            got.append([st.label(), variant, pair.key()])
            if rs.family != "C":
                assert from_pair(pair).render() == _word(rs, variant), \
                    (st.label(), variant)
    want = json.loads((GOLDEN / "standard_pairs.json").read_text())
    assert json.loads(json.dumps(got)) == want


def _ladder_pairs(rs, word):
    """The two-ladder search: the pair each D ladder reads off a word.

    Half-integers and integers from 0, each read as pair_from_word reads
    its one ladder; None where the ladder gives no admissible pair.
    """
    marks = [c for c in word if c in "ab"]
    size = len(marks)
    order = [p for p in reversed(range(size)) if marks[p] == "a"] \
        + [p for p in reversed(range(size)) if marks[p] == "b"]
    at = {p: Weight.unit(k, rs.m, rs.n) for k, p in enumerate(order)}
    bows, p = [], -1
    for c in word:
        if c in "ab":
            p += 1
        else:
            bows.append(at[p + 1] + at[p] if c == "⌢" else at[p + 1] - at[p])
    out = {}
    for name, ladder in (("half", range(1, 2 * size, 2)),
                         ("zero", range(0, 2 * size, 2))):
        x = [ladder[p] for p in order]
        pi = [a for a in rs.all_roots()
              if sum(v * c for v, c in zip(x, a.doubled)) == 4]
        try:
            sys = derive(pi, rs)
            out[name] = make_pair(
                [b if sys.is_positive_root(b) else -b for b in bows], sys)
        except (ValidationError, DomainError):
            out[name] = None
    return out


def test_d_ladder_is_read_from_the_lowest_marks_block():
    # on every frown-free D word of D systems with m + n <= 7, both
    # embeddings, exactly one ladder gives an admissible pair: half-integers
    # when the lowest mark's block has type C, integers from 0 when D
    words = 0
    for m, n in product(range(1, 8), range(8)):
        if m + n > 7 or (m, n) == (1, 0):
            continue
        rs = build(SuperType("D", m, n))
        drawn = set()
        for pair in enumerate_admissible_pairs(rs):
            try:
                drawn.add(from_pair(pair).render())
            except ValidationError:
                continue   # sum root away from the front: no diagram
        for word in sorted(w for w in drawn if "⌢" not in w):
            kind = WEYL_TYPES[rs.family]["ab".index(word[0])]
            found = _ladder_pairs(rs, word)
            good, other = ("half", "zero") if kind == "C" else ("zero", "half")
            assert found[other] is None, (rs.stype.label(), word)
            assert found[good] is not None, (rs.stype.label(), word)
            assert pair_from_word(rs, word).key() == found[good].key()
            words += 1
    assert words == 316

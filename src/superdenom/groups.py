"""Signed-permutation realizations of the even Weyl group and its parts.

W acts on weights by permuting eps coordinates among themselves and delta
coordinates among themselves, with optional sign flips where the family
allows them.  W# is generated by reflections in the positive-square even
roots (always supported on the eps block after normalization), W_2 by the
reflections in the remaining even roots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction as Q
from typing import Iterable, Optional, Sequence

from .errors import DomainError, ResourceLimitError, StructuralError
from .roots import RootSystem, simple_roots
from .weights import Weight, bilinear_form, in_positive_cone

DEFAULT_CAP = 10 ** 6


@dataclass(frozen=True)
class SignedPermutation:
    """Monomial map: basis vector i goes to sign * basis vector (target i).

    eps_images[i] = (j, s) means w(eps_{i+1}) = s * eps_{j+1}; delta likewise.
    """

    eps_images: tuple
    delta_images: tuple

    @staticmethod
    def identity(m: int, n: int) -> "SignedPermutation":
        return SignedPermutation(tuple((i, 1) for i in range(m)),
                                 tuple((j, 1) for j in range(n)))

    def apply(self, w: Weight) -> Weight:
        m, n = len(self.eps_images), len(self.delta_images)
        if w.dims() != (m, n):
            raise StructuralError("weight/permutation dimension mismatch")
        eps = [Q(0)] * m
        for i, (j, s) in enumerate(self.eps_images):
            if w.eps[i]:
                eps[j] = w.eps[i] if s == 1 else -w.eps[i]
        delta = [Q(0)] * n
        for i, (j, s) in enumerate(self.delta_images):
            if w.delta[i]:
                delta[j] = w.delta[i] if s == 1 else -w.delta[i]
        return Weight(tuple(eps), tuple(delta))

    def compose(self, other: "SignedPermutation") -> "SignedPermutation":
        """self after other (acts as self(other(x)))."""
        eps = tuple((self.eps_images[j][0], s * self.eps_images[j][1])
                    for (j, s) in other.eps_images)
        delta = tuple((self.delta_images[j][0], s * self.delta_images[j][1])
                      for (j, s) in other.delta_images)
        return SignedPermutation(eps, delta)

    def inverse(self) -> "SignedPermutation":
        eps = [None] * len(self.eps_images)
        for i, (j, s) in enumerate(self.eps_images):
            eps[j] = (i, s)
        delta = [None] * len(self.delta_images)
        for i, (j, s) in enumerate(self.delta_images):
            delta[j] = (i, s)
        return SignedPermutation(tuple(eps), tuple(delta))

    def is_identity(self) -> bool:
        return all(j == i and s == 1 for i, (j, s) in enumerate(self.eps_images)) \
            and all(j == i and s == 1 for i, (j, s) in enumerate(self.delta_images))

    def sgn(self) -> int:
        """Determinant: permutation parity times the product of signs."""
        out = _perm_parity([j for j, _ in self.eps_images])
        out *= _perm_parity([j for j, _ in self.delta_images])
        for _, s in self.eps_images + self.delta_images:
            out *= s
        return out

    def descr(self) -> str:
        return "eps:%s delta:%s" % (self.eps_images, self.delta_images)


def _perm_parity(perm: Sequence[int]) -> int:
    seen = [False] * len(perm)
    parity = 1
    for i in range(len(perm)):
        if seen[i]:
            continue
        ln = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            ln += 1
        if ln % 2 == 0:
            parity = -parity
    return parity


def reflection(alpha: Weight) -> SignedPermutation:
    """Reflection in a non-isotropic root, realized as a signed permutation."""
    norm = bilinear_form(alpha, alpha)
    if norm == 0:
        raise DomainError("cannot reflect in isotropic root %s" % alpha)
    m, n = alpha.dims()
    images = []
    for block, count, unit in (("eps", m, Weight.eps_unit),
                               ("delta", n, Weight.delta_unit)):
        block_images = []
        for i in range(1, count + 1):
            b = unit(i, m, n)
            img = b - alpha.scale(2 * bilinear_form(b, alpha) / norm)
            block_images.append(_as_signed_unit(img, block))
        images.append(tuple(block_images))
    return SignedPermutation(images[0], images[1])


def _as_signed_unit(w: Weight, block: str):
    coords = w.eps if block == "eps" else w.delta
    other = w.delta if block == "eps" else w.eps
    if any(c != 0 for c in other):
        raise StructuralError("reflection does not preserve the block of %s" % w)
    hits = [(i, c) for i, c in enumerate(coords) if c != 0]
    if len(hits) != 1 or abs(hits[0][1]) != 1:
        raise StructuralError("reflection image %s is not a signed unit" % w)
    return (hits[0][0], 1 if hits[0][1] > 0 else -1)


@dataclass
class GroupDescriptor:
    """A reflection-generated group with cached BFS enumeration."""

    tag: str
    dims: tuple
    generators: tuple
    reflection_roots: tuple = ()
    cap: int = DEFAULT_CAP
    _elements: Optional[tuple] = field(default=None, repr=False)

    def elements(self) -> tuple:
        if self._elements is None:
            self._elements = enumerate_group(self.generators, self.dims, self.cap)
        return self._elements

    @property
    def order(self) -> int:
        return len(self.elements())


def enumerate_group(generators: Sequence[SignedPermutation], dims: tuple,
                    cap: int = DEFAULT_CAP) -> tuple:
    """Deterministic BFS closure of the generating set."""
    ident = SignedPermutation.identity(*dims)
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for w in frontier:
            for g in generators:
                u = g.compose(w)
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
                    if len(seen) > cap:
                        raise ResourceLimitError(
                            "group enumeration exceeded cap %d" % cap)
        frontier = sorted(nxt, key=lambda p: (p.eps_images, p.delta_images))
    return tuple(sorted(seen, key=lambda p: (p.eps_images, p.delta_images)))


def weyl_group(rs: RootSystem, cap: int = DEFAULT_CAP) -> GroupDescriptor:
    """Full even Weyl group W, generated by even simple reflections."""
    simples = simple_roots(rs.positive_even)
    return GroupDescriptor("W", (rs.m, rs.n),
                           tuple(reflection(a) for a in simples),
                           reflection_roots=simples, cap=cap)


def sharp_group(rs: RootSystem, cap: int = DEFAULT_CAP) -> GroupDescriptor:
    """W#: reflections in the positive-square even roots."""
    simples = simple_roots(rs.sharp & rs.positive_even)
    return GroupDescriptor("W#", (rs.m, rs.n),
                           tuple(reflection(a) for a in simples),
                           reflection_roots=simples, cap=cap)


def complement_group(rs: RootSystem, cap: int = DEFAULT_CAP) -> GroupDescriptor:
    """W_2: reflections in the even roots outside Delta#."""
    simples = simple_roots(rs.positive_even - rs.sharp)
    return GroupDescriptor("W_2", (rs.m, rs.n),
                           tuple(reflection(a) for a in simples),
                           reflection_roots=simples, cap=cap)


def external_delta_flips(rs: RootSystem) -> tuple:
    """Sign flips delta_i -> -delta_i that preserve Delta without lying in W.

    Nonempty exactly for the embeddings whose delta block carries a D-type
    component (single flips there are diagram automorphisms, not Weyl).
    """
    if rs.family != "D_DELTA":
        return ()
    out = []
    for j in range(1, rs.n + 1):
        delta = tuple((i, -1 if i == j - 1 else 1) for i in range(rs.n))
        eps = tuple((i, 1) for i in range(rs.m))
        out.append(SignedPermutation(eps, delta))
    return tuple(out)


def orbit(lam: Weight, group: GroupDescriptor) -> list:
    """Orbit as a deterministic list of distinct weights."""
    seen = []
    seen_set = set()
    for w in group.elements():
        mu = w.apply(lam)
        if mu not in seen_set:
            seen_set.add(mu)
            seen.append(mu)
    return sorted(seen, key=lambda v: v.coords())


def stabilizer(lam: Weight, group: GroupDescriptor) -> GroupDescriptor:
    """Subgroup of group fixing lam, with elements precomputed."""
    fixing = tuple(w for w in group.elements() if w.apply(lam) == lam)
    sub = GroupDescriptor(group.tag + "_stab", group.dims, fixing,
                          reflection_roots=group.reflection_roots, cap=group.cap)
    sub._elements = fixing
    return sub


def check_stabilizer_dichotomy(lam: Weight, group: GroupDescriptor,
                               even_roots: Iterable[Weight]) -> bool:
    """Stabilizer is trivial or contains a reflection in an even root."""
    stab = stabilizer(lam, group)
    if stab.order == 1:
        return True
    refls = set()
    for a in even_roots:
        if bilinear_form(a, a) != 0:
            refls.add(reflection(a))
    return any(w in refls for w in stab.elements() if not w.is_identity())


def dominant_representative(lam: Weight, group: GroupDescriptor,
                            simple_roots: Sequence[Weight]) -> Weight:
    """The orbit element with nonnegative pairing against every simple coroot."""
    for mu in orbit(lam, group):
        if all(bilinear_form(mu, a) * 2 / bilinear_form(a, a) >= 0
               for a in simple_roots):
            return mu
    raise StructuralError("orbit of %s has no dominant element" % lam)


def orbit_intersects_shifted_cone(lam: Weight, group: GroupDescriptor,
                                  simple_roots: Sequence[Weight],
                                  rho: Weight) -> bool:
    """Does the orbit of lam meet rho + (rational nonnegative cone on simples)?"""
    for a in simple_roots:
        pairing = bilinear_form(lam, a) * 2 / bilinear_form(a, a)
        if pairing.denominator != 1:
            raise DomainError("%s is not an integral weight: <.,%s^> = %s"
                              % (lam, a, pairing))
    for mu in orbit(lam, group):
        if in_positive_cone(mu - rho, simple_roots, ring="rational") is not None:
            return True
    return False

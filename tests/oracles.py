"""Reference helpers that only the tests use.

Each one is small, independent of the package's fast paths, and read by
more than one test module, so it lives here rather than in the package.
"""

from superdenom.groups import (SignedPermutation, _gather, is_dominant, orbit,
                               weyl_group)
from superdenom.identity import _alternating_sum
from superdenom.roots import WEYL_TYPES
from superdenom.series import _accumulate, _Packing, _product, expand_raw
from superdenom.simple import even_frame
from superdenom.weights import Weight


def inverse(g: SignedPermutation) -> SignedPermutation:
    """g^-1, built from the images: g(b_k) = s b_j gives g^-1(b_j) = s b_k."""
    images = [None] * len(g.src)
    for k, (j, s) in enumerate(g.images):
        images[j] = (k, s)
    return SignedPermutation.from_images(images, g.m)


def external_delta_flips(rs) -> tuple:
    """Sign flips delta_i -> -delta_i that preserve Delta without lying in W.

    Nonempty exactly for the embeddings whose delta block carries a D-type
    component (single flips there are diagram automorphisms, not Weyl).
    """
    if WEYL_TYPES[rs.family][1] != "D":
        return ()
    size = rs.m + rs.n
    return tuple(
        SignedPermutation(tuple(-(k + 1) if k == j else k + 1
                                for k in range(size)), rs.m)
        for j in range(rs.m, size))


def qn_a_set(rs, S) -> tuple:
    """The w in S_n with wS inside the positive part, w(eps_i) = eps_{w(i)}.

    The S_n filter: every element of W is walked, and membership is
    tested on gathers of the doubled tuples.  a(S) is its signed count.
    """
    pos = {a.doubled for a in rs.positive_even}
    ds = [b.doubled for b in S]
    return tuple(w for w in weyl_group(rs)
                 if all(_gather(w.src, d) in pos for d in ds))


def qn_w_sum(rs, S, H: int):
    """sum_{w in S_n} sgn(w)/prod_{b in S}(1 + e^{-wb}) to height H.

    The W-sum path: the alternating sum merged over all of S_n on raw
    keys and expanded by `expand_raw` in the even frame, from key 0.
    """
    zero = Weight.zero(rs.m, rs.n)
    return expand_raw(_alternating_sum(weyl_group(rs), zero, S),
                      even_frame(rs), H, offset=zero)


def multiply_chain_by_chain(H, chains) -> tuple:
    """`series.multiply` with each chain packed and multiplied on its own.

    One window for all chains, as there, but every chain's data goes
    through `_Packing.pack` by itself and its factors through `_product`
    with a step dict of its own; the products are summed.
    """
    codec = _Packing.around([k for data, _ in chains for k in data], H)
    if codec is None:
        return None, {}
    acc = {}
    for data, factors in chains:
        packed = codec.pack(data)
        if packed:
            _accumulate(acc, _product(codec, packed, factors, {}).items())
    return codec, acc


def dominant_representative(lam, group, simples):
    """The orbit element with nonnegative pairing against every simple coroot."""
    for mu in orbit(lam, group):
        if is_dominant(mu, simples):
            return mu
    raise AssertionError("orbit of %s has no dominant element" % lam)


def dump_lines(series) -> list:
    """One line per term of a series: coefficient, mu over the frame, exponent.

    Terms come by height, then key (`FormalSeries.items_sorted`).
    """
    return ["%s [%s] e^(%s)" % (v, ",".join(str(c) for c in k),
                                series.offset - series.frame.weight(k))
            for k, v in series.items_sorted()]

"""Reference helpers that only the tests use.

Each one is small, independent of the package's fast paths, and read by
more than one test module, so it lives here rather than in the package.
"""

from superdenom.groups import (SignedPermutation, _compiled, _gather,
                               is_dominant, orbit, sharp_group, weyl_group)
from superdenom.identity import _alternating_sum, _w2_generators, rhs_closed
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


def reference_product(H, chains) -> dict:
    """`series.multiply` on coordinate tuples, one term at a time.

    Each factor sends every key k to its terms k + j*step within height H:
    j = 0, 1 with coefficients 1, sign for (1 + sign * e^{-step}), and
    every j with (-1)^j for (step, None), 1/(1 + e^{-step}).  No packing,
    no layers and no cancellation shortcut; the chains' products are
    summed and zeros dropped.
    """
    total = {}
    for data, factors in chains:
        data = {k: v for k, v in data.items() if sum(k) <= H}
        for step, sign in factors:
            out = {}
            for k, v in data.items():
                j = 0
                while sum(k) <= H and (sign is None or j < 2):
                    c = (-1) ** j if sign is None else (1, sign)[j]
                    out[k] = out.get(k, 0) + c * v
                    k, j = tuple(a + b for a, b in zip(k, step)), j + 1
            data = out
        for k, v in data.items():
            total[k] = total.get(k, 0) + v
    return {k: v for k, v in total.items() if v}


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


def acted_sum(merged: dict, g: SignedPermutation) -> dict:
    """g applied to each raw key of a merged sum; g is injective on keys,
    so nothing merges."""
    move = _compiled(g)
    return {(move(exponent), tuple(sorted(map(move, denoms)))): c
            for (exponent, denoms), c in merged.items()}


def window_skew_check(pair, H: int) -> tuple:
    """W_2-skewness of X on the window: (ok, witness), ok None if W_2 is 1.

    The W#-sum is merged over all of W# and, for each generator g of
    W_2, mapped key by key; where that is not the sum times sgn(g), the
    acted sum is expanded and compared with sgn(g) X up to height H.  It
    sees no mismatch above H.
    """
    gens = _w2_generators(pair.rs)
    if not gens:
        return None, None
    merged = _alternating_sum(sharp_group(pair.rs), pair.system.rho, pair.S)
    X = rhs_closed(pair, H, merged)
    for root, g in gens:
        sign = g.sgn()
        moved = acted_sum(merged, g)
        if moved == {k: sign * c for k, c in merged.items()}:
            continue
        diff = expand_raw(moved, pair.system, H).eq_report(X.scale(sign))
        if diff is not None:
            return False, dict(diff, generator=str(root))
    return True, None


def simple_roots_of_type(kind: str, rank: int) -> list:
    """The simple roots of type kind on rank coordinates, as int tuples:
    e_i - e_{i+1}, then e_r (B), 2 e_r (C) or e_{r-1} + e_r (D)."""
    def unit(*pairs):
        out = [0] * rank
        for i, c in pairs:
            out[i] += c
        return tuple(out)
    roots = [unit((i, 1), (i + 1, -1)) for i in range(rank - 1)]
    if kind == "B":
        roots.append(unit((rank - 1, 1)))
    elif kind == "C":
        roots.append(unit((rank - 1, 2)))
    elif kind == "D" and rank > 1:
        roots.append(unit((rank - 2, 1), (rank - 1, 1)))
    return roots


def reflect_to_dominant(mu: tuple, kind: str):
    """(mu's dominant form, sign) by simple reflections, or None if singular.

    Reflects in a simple root alpha while <mu, alpha^vee> < 0, one sign
    flip each; mu is singular if some (mu, alpha) = 0 at the end.
    """
    roots = simple_roots_of_type(kind, len(mu))
    mu, sign = list(mu), 1
    while True:
        for alpha in roots:
            pairing = sum(x * a for x, a in zip(mu, alpha))
            if pairing < 0:
                norm = sum(a * a for a in alpha)
                mu = [x - 2 * pairing * a // norm for x, a in zip(mu, alpha)]
                sign = -sign
                break
        else:
            break
    if any(sum(x * a for x, a in zip(mu, alpha)) == 0 for alpha in roots):
        return None
    return tuple(mu), sign

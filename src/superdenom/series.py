"""Truncated exponential series over the weight lattice.

Every series lives in a frame: a simple system whose positive cone fixes
both the expansion directions and the coordinates.  A series stores the
coefficient of e^{offset - mu} keyed by the coordinate tuple of mu in the
simple basis; the offset is the frame's rho unless stated otherwise.
Truncation is by height (coordinate sum) of mu.

A sum of geometric terms c e^{exponent} / prod_gamma (1 + e^{-gamma}) has
one form, the merged raw dict {(exponent, sorted denominators): c} on
doubled int tuples.  Its factors expand along the frame's positive
direction, so `normalize` first makes every gamma positive and keys the
term on (exponent, sorted steps), the steps being the simple coordinates
of the positive denominators; `expand_raw` expands only what it returns,
since skipping that rewrite silently changes which power series the
product denotes, and reads each chain's factors straight from the key.

The kernels run on packed int keys.  A builder takes lo, the
coordinatewise minimum of its starting keys (every later key only climbs
from there, by steps with nonnegative coordinates and height >= 1), and
packs each key mu with mu >= lo and height <= H as one int

    p = (ht mu - sum lo) * B**r + sum_i (mu_i - lo_i) * B**i,
    B = H - sum lo + 1,

r being the rank.  The digits mu_i - lo_i are nonnegative and sum to
ht mu - sum lo <= B - 1, so each is below B: adding a packed step is one
int add that carries nowhere while the height stays <= H.  The top digit
p // B**r is the shifted height, 0 to B - 1: a product runs on these
height layers (`_product`), the last one being height H, so no key is
compared with a cut.  `_Packing` is the codec: it raises StructuralError
for a key below lo or a non-integer key and never wraps.  `multiply` is
the one builder: it packs every chain of a product in one window, all
starting keys in one `_Packing.keys` call and each distinct step once,
and returns that window's codec with the packed sum, which is what a
`FormalSeries` holds.  Tuple keys appear only at the edges: the starting
keys a builder packs, a queried coefficient, the witness of a failed
comparison and printed output.  Two series in the same window compare
their dicts directly; series from different windows are both re-packed
into the joint one first.
"""

from __future__ import annotations

from operator import add, mul, sub

from .errors import DomainError, StructuralError
from .simple import SimpleSystem
from .weights import Weight


class FormalSeries:
    """Coefficients of e^{offset - mu}, mu packed in one window.

    codec is the window's `_Packing` and data maps packed keys to nonzero
    coefficients, as `multiply` returns them; a series with no key within
    H may have no window (codec None, data empty).  Series in the same
    window (same lo and H) compare their dicts directly; any other pair
    is re-packed into the joint window first (`_joint`).  Tuple keys
    appear only where a key is read or printed.
    """

    __slots__ = ("frame", "H", "offset", "codec", "data")

    def __init__(self, frame: SimpleSystem, H: int, offset: Weight | None = None,
                 window: tuple | None = None):
        self.frame = frame
        self.H = H
        self.offset = frame.rho if offset is None else offset
        self.codec, self.data = (None, {}) if window is None else window

    def _compatible(self, other: "FormalSeries") -> None:
        if self.frame is not other.frame and self.frame != other.frame:
            raise StructuralError("series frames differ")
        if self.H != other.H or self.offset != other.offset:
            raise StructuralError("series windows differ")

    def _joint(self, other: "FormalSeries") -> tuple:
        """(codec, mine, theirs): both data packed in one window.

        Series in the same window keep their data; a series with no
        window, being empty, fits in the other's.  Otherwise both are
        re-packed above the coordinatewise minimum of the two lo.
        """
        self._compatible(other)
        a, b = self.codec, other.codec
        if a is None or b is None or (a.lo, a.H) == (b.lo, b.H):
            return a or b, self.data, other.data
        codec = _Packing(tuple(map(min, a.lo, b.lo)), self.H)
        return (codec, codec.pack(a.unpack(self.data)),
                codec.pack(b.unpack(other.data)))

    def _with(self, codec, data: dict) -> "FormalSeries":
        return FormalSeries(self.frame, self.H, self.offset, (codec, data))

    def scale(self, c) -> "FormalSeries":
        if c == 0:
            return self._with(self.codec, {})
        return self._with(self.codec, {k: c * v for k, v in self.data.items()})

    def mul_binomial(self, sign: int, root: Weight) -> "FormalSeries":
        """Multiply by (1 + sign * e^{-root}) for a positive root."""
        return self._times(positive_step(self.frame, root), sign)

    def mul_geometric(self, root: Weight) -> "FormalSeries":
        """Multiply by 1/(1 + e^{-root}) for a positive root of the frame."""
        return self._times(positive_step(self.frame, root), None)

    def _times(self, step: tuple, sign) -> "FormalSeries":
        if self.codec is None:
            return self._with(None, {})
        return self._with(self.codec, _product(self.codec, self.data,
                                               [(step, sign)], {}))

    def coefficient_at(self, weight: Weight):
        """Coefficient of e^{weight}.

        A weight past height H was never computed: DomainError.  One below
        the window, or off the lattice, reads 0, since every key of the
        series is an int tuple >= lo.
        """
        key = self.frame.cone_key(self.offset - weight)
        if _ht(key) > self.H:
            raise DomainError("%s lies past the truncation height %s"
                              % (weight, self.H))
        codec = self.codec
        if codec is None or any(type(c) is not int or c < lo
                                for c, lo in zip(key, codec.lo)):
            return 0
        return self.data.get(codec.key(key), 0)

    def nonzero_count(self) -> int:
        return len(self.data)

    def eq_report(self, other: "FormalSeries") -> dict | None:
        """None if equal on the window; else data about the first difference.

        The first difference is the least (height, key tuple).  A packed
        key's top digit is its shifted height, so only the differing keys
        of the least height are unpacked.
        """
        codec, mine, theirs = self._joint(other)
        if mine == theirs:
            return None
        get_a, get_b = mine.get, theirs.get
        diffs = [k for k in mine.keys() | theirs.keys()
                 if get_a(k, 0) != get_b(k, 0)]
        if not diffs:                   # a stored zero reads as absent
            return None
        top = codec.limit // codec.B
        h = min(diffs) // top
        low = codec.unpack({p: p for p in diffs if p // top == h})
        k = min(low)
        mu = self.frame.weight(k)
        return {
            "exponent": str(self.offset - mu),
            "mu": [str(c) for c in k],
            "height": str(_ht(k)),
            "left": str(get_a(low[k], 0)),
            "right": str(get_b(low[k], 0)),
        }

    def items_sorted(self) -> list:
        """(key tuple, coefficient) by height, then key."""
        if self.codec is None:
            return []
        return sorted(self.codec.unpack(self.data).items(),
                      key=lambda kv: (_ht(kv[0]), kv[0]))


def _ht(key: tuple):
    return sum(key)


def _accumulate(acc: dict, items) -> dict:
    """Add the (key, value) pairs into acc, dropping keys that reach zero.

    Private on purpose: the benchmark tracer wraps every public function,
    and this runs once per term.
    """
    for k, v in items:
        nv = acc.get(k, 0) + v
        if nv:
            acc[k] = nv
        else:
            acc.pop(k, None)
    return acc


def positive_step(frame: SimpleSystem, root: Weight) -> tuple:
    """Simple coordinates of a positive root, read from the frame's table.

    StructuralError for a weight that is no root of the frame, or a
    negative one (`SimpleSystem._root_steps`).  Every step so has height
    >= 1: a lower one would leave the height window (binomial) or never
    reach its end (geometric).
    """
    step, negative = frame._root_steps.get(root.doubled, (None, True))
    if negative:
        raise StructuralError("%s is not a positive root of the frame"
                              % root)
    return step


class _Packing:
    """The packed-key codec of one window: keys >= lo, height <= H.

    See the module docstring for the layout and why adding a packed step
    never carries inside the window.  `limit` = B**(r + 1): a key of
    height <= H packs below it and a key past H strictly above it (its
    lower digits are not all zero).  H must be at least sum(lo), or the
    window holds no key >= lo.
    """

    __slots__ = ("lo", "H", "B", "weights", "shift", "limit")

    def __init__(self, lo: tuple, H: int):
        if any(type(c) is not int for c in lo) or H < sum(lo):
            raise StructuralError("no packed window for keys >= %s at "
                                  "height %s" % (lo, H))
        self.lo, self.H = lo, H
        self.B = B = H - sum(lo) + 1
        top = B ** len(lo)
        # p = sum_i mu_i * (B**i + top) - shift: the height digit is linear
        self.weights = tuple(B ** i + top for i in range(len(lo)))
        self.shift = sum(map(mul, lo, self.weights))
        self.limit = top * B

    @staticmethod
    def around(keys, H) -> _Packing | None:
        """The codec whose lo is the minimum of the keys of height <= H.

        None when no key lies in the window.
        """
        keys = [k for k in keys if sum(k) <= H]
        if not keys:
            return None
        return _Packing(tuple(map(min, zip(*keys))), H)

    def keys(self, keys: list) -> list:
        """The keys packed, one coordinate at a time over all of them.

        A key past height H packs above limit; a key below lo, or with a
        coordinate that is not an int (which turns the sum into a
        Fraction), raises StructuralError.
        """
        out = [-self.shift] * len(keys)
        for i, (lo, w) in enumerate(zip(self.lo, self.weights)):
            col = [k[i] for k in keys]
            if min(col, default=lo) < lo:
                raise StructuralError(
                    "key %s lies outside the packed window above %s"
                    % (next(k for k in keys if k[i] < lo), self.lo))
            out = [p + c * w for p, c in zip(out, col)]
        if type(sum(out)) is not int:
            raise StructuralError("key %s is not integral" % (next(
                k for k in keys if any(type(c) is not int for c in k)),))
        return out

    def key(self, mu: tuple) -> int:
        """One key packed (`keys`)."""
        return self.keys([mu])[0]

    def step(self, step: tuple) -> int:
        """A positive step packed: the int that adding it adds."""
        p = sum(map(mul, step, self.weights))
        if type(p) is not int or min(step, default=0) < 0 or _ht(step) < 1:
            raise StructuralError("step %s is not positive" % (step,))
        return p

    def pack(self, data: dict) -> dict:
        """Tuple-keyed data packed; zeros and keys past height H drop."""
        H = self.H
        kept = [k for k, v in data.items() if v and sum(k) <= H]
        if not kept:
            return {}
        return dict(zip(self.keys(kept), map(data.__getitem__, kept)))

    def unpack(self, data: dict) -> dict:
        """Packed data back on coordinate tuples, one digit at a time."""
        B = self.B
        rest, cols = list(data), []
        for lo in self.lo:
            cols.append([p % B + lo for p in rest])
            rest = [p // B for p in rest]
        keys = zip(*cols) if cols else [()] * len(rest)
        return dict(zip(keys, data.values()))


def _shift_add(dst: dict | None, items, step: int, sign: int) -> dict:
    """dst plus sign times the (key, value) pairs moved up by step, in place.

    The one kernel of `_product` and of `straighten.Numerator`.  items
    holds no zero, so a key that reaches zero was in dst and drops; dst
    None is an empty layer, allocated only when something is written.
    """
    if dst is None:
        return {k + step: sign * v for k, v in items}
    get = dst.get
    for k, v in items:
        k += step
        nv = get(k, 0) + sign * v
        if nv:
            dst[k] = nv
        else:
            del dst[k]
    return dst


def _product(codec: _Packing, data: dict, factors, steps: dict) -> dict:
    """Packed data times the factors of a chain (`multiply`), in order.

    Layer t holds the keys whose top digit, ht mu - sum lo, is t.  A step
    of height h moves layer t - h onto layer t without a carry, so
    (1 + s e^{-step}) adds s times layer t - h to layer t for t
    descending, and 1/(1 + e^{-step}) subtracts layer t - h from the
    already divided layer t for t ascending.  steps is the window's dict
    of packed steps: a step is packed the first time a chain reads it.
    """
    top = codec.limit // codec.B
    layers = [None] * codec.B
    for k, v in data.items():
        t = k // top
        if layers[t] is None:
            layers[t] = {}
        layers[t][k] = v
    for step, sign in factors:
        p = steps.get(step)
        if p is None:
            p = steps[step] = codec.step(step)
        h = p // top                # ht(step), or >= B past the window
        if sign is None:
            sign, order = -1, range(h, codec.B)
        else:
            order = range(codec.B - 1, h - 1, -1)
        for t in order:
            src = layers[t - h]
            if src:
                layers[t] = _shift_add(layers[t], src.items(), p, sign)
    out = {}
    for layer in layers:
        if layer:
            out.update(layer)
    return out


def multiply(H, chains) -> tuple:
    """Sum over the chains of data times its factors, to height H.

    A chain is (data, factors): tuple-keyed data and a list of factors,
    applied in the order given.  A factor (step, sign) multiplies by
    (1 + sign * e^{-step}), and (step, None) divides by (1 + e^{-step}),
    i.e. multiplies by sum_k (-1)^k e^{-k * step}; every step is the
    simple coordinates of a positive root.  All chains share one packed
    window, whose lo is the minimum of their keys within H, and the
    window is packed once: the nonzero keys within H of every chain in
    one `_Packing.keys` call, split back by chain, and each distinct step
    once, into one dict that every chain reads.  A chain with no key
    left is skipped, since its keys only climb; the others run on height
    layers (`_product`) and their sum is accumulated.  The first product
    is the accumulator itself, so lhs is never copied.  Returns the window
    `FormalSeries` takes: (codec, packed sum), or (None, {}) when no key
    lies within H.
    """
    codec = _Packing.around([k for data, _ in chains for k in data], H)
    if codec is None:
        return None, {}
    kept = [[k for k, v in data.items() if v and sum(k) <= H]
            for data, _ in chains]
    packed = codec.keys([k for keys in kept for k in keys])
    acc, steps, i = {}, {}, 0
    for keys, (data, factors) in zip(kept, chains):
        if keys:
            j = i + len(keys)
            data = _product(codec, dict(zip(packed[i:j],
                                            map(data.__getitem__, keys))),
                            factors, steps)
            acc = _accumulate(acc, data.items()) if acc else data
            i = j
    return codec, acc


def normalize(merged: dict, frame: SimpleSystem) -> dict:
    """The merged raw sum on positive denominators, keyed by their steps.

    merged maps raw keys (exponent, sorted denominators), doubled tuples,
    to coefficients.  A denominator gamma negative in the frame
    (`SimpleSystem._root_steps`) is added to the exponent and negated,
    since 1/(1 + e^{-gamma}) = e^{gamma}/(1 + e^{gamma}).  The normal form
    maps (exponent, sorted steps) to coefficients, a step being the simple
    coordinates of a positive denominator, which fix it; equal keys merge
    and zero totals drop.  Each distinct denominator tuple is looked up
    in the frame's table once (`_positive`).  A denominator that is no
    root raises StructuralError.  No span is needed.

    Two sums denote the same function if their normal forms coincide, but
    not only if: in gl(2|1), with beta odd and positive,
    e^rho/(1+e^{-beta}) + e^{rho-beta}/(1+e^{-beta}) - e^rho is the zero
    function, yet its three keys are distinct and all survive.  Equal
    normal forms prove equality; unequal ones prove nothing.
    """
    roots, moves, out = frame._root_steps, {}, {}
    for (exponent, denoms), c in merged.items():
        move = moves.get(denoms)
        if move is None:
            move = moves[denoms] = _positive(denoms, roots, frame)
        shift, steps = move
        if shift is not None:
            exponent = tuple(map(add, exponent, shift))
        key = (exponent, steps)
        total = out.get(key, 0) + c     # `_accumulate`, inlined per key
        if total:
            out[key] = total
        else:
            out.pop(key, None)
    return out


def _positive(denoms: tuple, roots: dict, frame: SimpleSystem) -> tuple:
    """(sum of the negative denominators or None, the sorted steps of the
    denominators made positive) for one denominator tuple."""
    try:
        looked = [roots[g] for g in denoms]
    except KeyError as exc:
        raise StructuralError("denominator %s is not a root here"
                              % Weight(exc.args[0], frame.m)) from None
    shift = None
    for g, (_, negative) in zip(denoms, looked):
        if negative:
            shift = g if shift is None else tuple(map(add, shift, g))
    return shift, tuple(sorted([step for step, _ in looked]))


def expand_raw(merged: dict, frame: SimpleSystem, H,
               offset: Weight | None = None) -> FormalSeries:
    """Sum of the expansions of a merged raw sum in the frame's directions.

    merged is a merged raw sum (see `normalize`); no weight or term is
    built.  Its normal form is expanded: offset - exponent must lie in the
    span with an integer height, and a key past height H is then culled,
    which is exact: expanding adds positive steps.  A base key off the
    lattice keeps a Fraction, which packing refuses.  Expansion is linear
    and every step positive, so the chains are grouped on the normal
    form's sorted steps, summing their bases, into one `multiply` (C(5)
    at H=10 keeps 194 keys with 10 distinct factor lists).
    """
    offset = frame.rho if offset is None else offset
    off, chains = offset.doubled, {}
    for (exponent, steps), c in normalize(merged, frame).items():
        mu = tuple(map(sub, off, exponent))
        ht = frame._raw_height(mu)
        if type(ht) is not int:
            raise StructuralError("%s is not integral" % Weight(mu, frame.m))
        if ht > H:
            continue
        data = chains.setdefault(steps, {})
        base = frame._raw_cone_key(mu)
        data[base] = data.get(base, 0) + c
    return FormalSeries(frame, H, offset, multiply(H, [
        (data, [(step, None) for step in steps])
        for steps, data in chains.items()]))

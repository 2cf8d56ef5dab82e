"""Symbolic open-set descriptors with exact membership for partial bijections.

A descriptor denotes a basic or derived open set.  Each of the nine kinds
states its exact membership test on a finite partial bijection as its method
``_has``, which ``member`` calls once it has refused a non-descriptor;
``_reach`` still states what every kind's test reads, in one function.
Subset and equality questions between descriptors are settled by exhaustive
checks over bounded universes (see ``waning.harness``), never symbolically.

The refinement operations return witnesses extracted from constructive
arguments: a radius whose principal neighbourhood sits inside a given basic
set, a descriptor that rewrites a neighbourhood through the waning closure,
a radius making multiplication land inside a target neighbourhood, and
explicit separating elements for the order and compactness results.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable, Union

from .errors import (
    BadBase,
    BoundTooLarge,
    InvalidDescriptor,
    InvalidR,
    NoWitness,
    NotMember,
    PreconditionError,
)
from .functions import (
    OMEGA,
    SIZE_LIMIT,
    GenFn,
    WaningFn,
    check_nat,
    closure,
    nat_set,
)
from .pbij import PBij

MAX_NESTING = 100


class SetDescriptor:
    """Base of the nine descriptor kinds; Dual and Intersection nest, and
    store their own ``depth``.  Each kind overrides ``_has``."""

    __slots__ = ()
    depth = 0

    def _has(self, h: PBij) -> bool:
        """Exact membership of h; ``member`` is the public entry.  Dual and
        Intersection call their parts' ``_has`` directly, as their
        constructors checked the parts."""
        raise InvalidDescriptor(f"not a descriptor: {self!r}")


@dataclass(frozen=True, slots=True)
class PointHit(SetDescriptor):
    """Elements whose graph contains the pair (x, y)."""

    x: int
    y: int

    def __post_init__(self):
        check_nat(self.x, self.y)

    def _has(self, h: PBij) -> bool:
        return h.get(self.x) == self.y


@dataclass(frozen=True, slots=True)
class DomMiss(SetDescriptor):
    """Elements whose domain avoids the point x."""

    x: int

    def __post_init__(self):
        check_nat(self.x)

    def _has(self, h: PBij) -> bool:
        return h.get(self.x) is None


@dataclass(frozen=True, slots=True)
class ImMiss(SetDescriptor):
    """Elements whose image avoids the point x."""

    x: int

    def __post_init__(self):
        check_nat(self.x)

    def _has(self, h: PBij) -> bool:
        return not h.has_target(self.x)


@dataclass(frozen=True, slots=True)
class UBasic(SetDescriptor):
    """Elements with at least n image points outside ``avoid`` and at most
    f(n) image points inside it.  Raises InvalidDescriptor unless f is a
    GenFn or a WaningFn."""

    f: Union[GenFn, WaningFn]
    n: int
    avoid: frozenset[int]

    def __post_init__(self):
        check_nat(self.n)
        if not isinstance(self.f, (GenFn, WaningFn)):
            raise InvalidDescriptor(
                f"not a waning or eventually-constant function: {self.f!r}"
            )
        object.__setattr__(self, "avoid", nat_set(self.avoid))

    def _has(self, h: PBij) -> bool:
        avoid, inside = self.avoid, 0
        for _, y in h.pairs:
            if y in avoid:
                inside += 1
        return len(h.pairs) - inside >= self.n and inside <= self.f(self.n)


@dataclass(frozen=True, slots=True)
class WNbhd(SetDescriptor):
    """Principal neighbourhood of g: agree with g below r and hit at most
    f(|g|) image points in range(r) outside im(g).  Raises DomainError unless
    r is a natural, and InvalidDescriptor unless f is a WaningFn, g is a
    PBij and r is valid, that is r >= valid_r_min(f, g)."""

    f: WaningFn
    g: PBij
    r: int

    def __post_init__(self):
        check_nat(self.r)
        if not isinstance(self.f, WaningFn):
            raise InvalidDescriptor(f"not a waning function: {self.f!r}")
        if not isinstance(self.g, PBij):
            raise InvalidDescriptor(f"not a partial bijection: {self.g!r}")
        if self.r < valid_r_min(self.f, self.g):
            raise InvalidDescriptor(
                f"radius {self.r} is not valid for this neighbourhood"
            )

    def _has(self, h: PBij) -> bool:
        g, r = self.g, self.r
        if not _agrees_below(h, g, r):
            return False
        mistakes = 0
        for _, y in h.pairs:
            if y < r and not g.has_target(y):
                mistakes += 1
        return mistakes <= self.f(len(g))


@dataclass(frozen=True, slots=True)
class Wany(SetDescriptor):
    """Elements with domain clear of range(n) whose image misses some member
    of the family.  Raises InvalidDescriptor for an empty family."""

    n: int
    families: tuple[frozenset[int], ...]

    def __init__(self, n: int, families: Iterable[Iterable[int]]):
        object.__setattr__(self, "n", n)
        # canonical order so structural equality matches set-of-sets equality
        sets = {nat_set(ys) for ys in families}
        if not sets:
            raise InvalidDescriptor("empty family of avoided sets")
        check_nat(n)
        object.__setattr__(
            self, "families", tuple(sorted(sets, key=lambda ys: sorted(ys)))
        )

    def _has(self, h: PBij) -> bool:
        if any(x < self.n for x, _ in h.pairs):
            return False
        return any(all(y not in ys for _, y in h.pairs) for ys in self.families)


@dataclass(frozen=True, slots=True)
class Dual(SetDescriptor):
    """Image of the inner set under inversion."""

    inner: SetDescriptor
    depth: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _set_depth(self, (self.inner,))

    def _has(self, h: PBij) -> bool:
        return self.inner._has(h.inverse())


@dataclass(frozen=True, slots=True)
class Intersection(SetDescriptor):
    parts: tuple[SetDescriptor, ...]
    depth: int = field(init=False, repr=False, compare=False)

    def __init__(self, parts: Iterable[SetDescriptor]):
        object.__setattr__(self, "parts", tuple(parts))
        _set_depth(self, self.parts)

    def _has(self, h: PBij) -> bool:
        for part in self.parts:
            if not part._has(h):
                return False
        return True


@dataclass(frozen=True, slots=True)
class FixBelow(SetDescriptor):
    """Elements agreeing with g on all sources below r.  Raises
    InvalidDescriptor unless g is a PBij."""

    g: PBij
    r: int

    def __post_init__(self):
        check_nat(self.r)
        if not isinstance(self.g, PBij):
            raise InvalidDescriptor(f"not a partial bijection: {self.g!r}")

    def _has(self, h: PBij) -> bool:
        return _agrees_below(h, self.g, self.r)


def _set_depth(d: Union[Dual, Intersection], parts: tuple) -> None:
    """Store ``d.depth``, the most Dual and Intersection levels on a path
    down from d; refuse a part that is not a descriptor, and nesting past
    MAX_NESTING, where ``member``, ``_reach`` and the encoder would recurse
    too deep.  A field without ``init`` or ``compare``: ``==``, ``hash``
    and ``repr`` ignore it, and pickles and copies keep it.  A plain loop:
    ``much_wan_witness`` builds an intersection per call."""
    depth = 0
    for part in parts:
        if not isinstance(part, SetDescriptor):
            raise InvalidDescriptor(f"not a descriptor: {part!r}")
        if part.depth >= depth:
            depth = part.depth + 1
    if depth > MAX_NESTING:
        raise ValueError(f"descriptor nests deeper than {MAX_NESTING} levels")
    object.__setattr__(d, "depth", depth)


def _agrees_below(h: PBij, g: PBij, r: int) -> bool:
    """True when h and g have the same pairs with source below r."""
    k = bisect_left(g.pairs, (r,))
    return bisect_left(h.pairs, (r,)) == k and h.pairs[:k] == g.pairs[:k]


def member(d: SetDescriptor, h: PBij) -> bool:
    """Exact membership of a finite partial bijection in the described set."""
    if not isinstance(d, SetDescriptor):
        raise InvalidDescriptor(f"not a descriptor: {d!r}")
    return d._has(h)


def _reach(d: SetDescriptor) -> tuple[tuple, int, int]:
    """(P, r, R): the members of ``d`` lie in the scope (P, r), the elements
    whose pairs with source below r are exactly P, and ``member(d, h)``
    reads only im(h) and h's pairs with source below R.

    A W or FixBelow set holds elements agreeing with g below r, and reads
    those pairs and the image.  An intersection reads what its parts read,
    and takes the part scope with the largest r: two scopes are nested or
    disjoint, the larger r the inner one when nested (``harness._mismatches``).
    Other kinds take the whole universe, ((), 0): a U or ImMiss set reads
    the image, a point or domain test at x reads h(x), a Wany set whether a
    source lies below n and the image, and a dual every pair (reach ω).
    """
    if isinstance(d, (WNbhd, FixBelow)):
        return d.g.pairs[: bisect_left(d.g.pairs, (d.r,))], d.r, d.r
    if isinstance(d, Intersection):
        parts = [_reach(part) for part in d.parts]
        below, r, _ = max(parts, key=itemgetter(1), default=((), 0, 0))
        return below, r, max((reach for _, _, reach in parts), default=0)
    if isinstance(d, (UBasic, ImMiss)):
        return (), 0, 0
    if isinstance(d, (PointHit, DomMiss)):
        return (), 0, d.x + 1
    if isinstance(d, Wany):
        return (), 0, d.n
    if isinstance(d, Dual):
        return (), 0, OMEGA
    raise InvalidDescriptor(f"not a descriptor: {d!r}")


def valid_r_min(f: WaningFn, g: PBij) -> int:
    """Smallest radius r with f(r) <= f(|g|) = f(|g restricted below r|).

    Closed form: a radius r shows the k_r pairs of g with source below r,
    and k_r <= r, so with f non-increasing r is valid exactly when
    f(k_r) = f(|g|), that is when k_r >= k for the least k with
    f(k) = f(|g|).  The least such r is one past the source of g's k-th
    pair, or 0 when k = 0.  Every larger radius is also valid and shrinks
    the neighbourhood.

    The least k is read off the canonical form: k = 0 when f is constant
    OMEGA or |g| < omega_prefix, else k = min(|g|, support_end).  Proof:
    f(0) = OMEGA = f(|g|) in the first two cases.  Otherwise f(|g|) is a
    drop or 0.  Every index before a drop holds OMEGA or a larger drop, as
    the drops strictly decrease, so a drop f(|g|) is first taken at |g|;
    0 is first taken at support_end <= |g|.
    """
    size = len(g.pairs)
    if f.const_omega or size < f.omega_prefix:
        return 0
    k = min(size, f.omega_prefix + len(f.drops))
    return g.pairs[k - 1][0] + 1 if k else 0


def basis_refinement(f: WaningFn, n: int, avoid: Iterable[int], g: PBij) -> int:
    """Smallest valid radius r whose neighbourhood of g sits inside the basic set.

    Requires g itself to be a member.  r clears max(avoid), shows at least n
    image points of g outside ``avoid`` below r, and is valid for (f, g).
    The second clause holds from one past the source of the n-th pair of g
    whose target is outside ``avoid``; g is a member, so that pair exists.
    """
    basic = UBasic(f, n, avoid)
    if not member(basic, g):
        raise NotMember("base point is outside the basic set")
    r = valid_r_min(f, g)
    if basic.avoid:
        r = max(r, max(basic.avoid) + 1)
    if n:
        shown = [x for x, y in g.pairs if y not in basic.avoid]
        r = max(r, shown[n - 1] + 1)
    return r


def _least_costs(f: Union[GenFn, WaningFn], i: int, size: int) -> tuple:
    """(m(i), j, m(size)) for i <= size, where m(k) is the least f(k') + k'
    over k' <= k and j is the first index taking m(i).  OMEGA absorbs ``+ k'``."""
    least, j = OMEGA, 0
    for k in range(i + 1):
        cost = f(k) + k
        if cost < least:
            least, j = cost, k
    least_i = least
    for k in range(i + 1, size + 1):
        least = min(least, f(k) + k)
    return least_i, j, least


def much_wan_witness(f: Union[GenFn, WaningFn], g: PBij, r: int) -> SetDescriptor:
    """Descriptor over the original function equal to the closure neighbourhood.

    For the waning closure f' of f and a radius valid for (f', g), returns a
    set built from f alone that agrees pointwise with the (f', g, r)
    neighbourhood on finite elements.  Raises PreconditionError for a radius
    not valid for (f', g), and BoundTooLarge when a finite budget makes that
    set list the more than SIZE_LIMIT points of range(r).

    f' is read off one scan of f over k <= |g|, without building it:
    f'(k) = max(0, m(k) - k), where m(k) is the least f(j) + j over j <= k.
    Proof, by induction on k: ``closure`` sets f'(0) = f(0) = m(0), and while
    f'(k) = m(k) - k > 0 it sets f'(k + 1) = min(f(k + 1), m(k) - k - 1)
    = m(k + 1) - (k + 1), which is at least 0; once m(k) - k <= 0 the
    closure stays at 0 and m(k) - k keeps falling.  OMEGA minus a count is
    OMEGA, so a run of OMEGA values stays OMEGA, as in ``closure``.  Only
    indices up to |g| are read, so a finite budget is answered however many
    drops f' has.  By ``valid_r_min``'s proof, r is valid exactly when
    f'(i) = f'(|g|) for the number i of g's pairs with source below r.
    """
    check_nat(r)
    size, i = len(g.pairs), bisect_left(g.pairs, (r,))
    least_i, j, least = _least_costs(f, i, size)
    size_value = max(0, least - size)
    if size_value == OMEGA:
        # every radius is valid, and the mistake budget is unlimited, so only
        # the agreement clause binds
        return FixBelow(g, r)
    if max(0, least_i - i) != size_value:
        raise PreconditionError(f"radius {r} is not valid for the closure")
    if r > SIZE_LIMIT:
        raise BoundTooLarge(f"the witness avoids {r} points, above {SIZE_LIMIT}")
    b = size_value + i - (least_i - j)
    outside = frozenset(range(r)) - g.image
    hits = sorted([y for _, y in g.pairs[:i]])
    picked = frozenset(hits[: i - b])
    return Intersection((FixBelow(g, r), UBasic(f, j, outside | picked)))


def tfprime_refinement(
    f: Union[GenFn, WaningFn], n: int, avoid: Iterable[int], g: PBij
) -> SetDescriptor:
    """Neighbourhood of g under the waning closure inside the original basic set.

    When the closure is still positive at |g| the same basic set over the
    closure works; otherwise a principal neighbourhood with a radius clearing
    ``avoid``, the sources of g hitting it, and the first n sources of g
    missing it.
    """
    basic = UBasic(f, n, avoid)
    if not member(basic, g):
        raise NotMember("base point is outside the basic set")
    fp = closure(f)
    if fp(len(g.pairs)) > 0:
        return UBasic(fp, n, basic.avoid)
    # the radius clears avoid and the sources of the pairs hitting it or
    # among the first n missing it; the sources ascend, so the last counts
    avoid, shown, reach = basic.avoid, 0, 0
    for x, y in g.pairs:
        if y not in avoid:
            if shown == n:
                continue
            shown += 1
        reach = x + 1
    return WNbhd(fp, g, max(valid_r_min(fp, g), max(avoid, default=-1) + 1, reach))


def continuity_p(f: WaningFn, a: PBij, b: PBij, r: int) -> int:
    """A joint radius meant to make products land inside the target neighbourhood.

    The radius p >= 1 is valid for both factors and clears the images of
    {0..r} under a and under the inverse of b.  It is not always the least
    one, nor always sufficient: when p < r a right factor may hit targets in
    [p, r) outside im(b) for free, and ``continuity`` fails at bound 4 on
    some seeds (see "Make continuity sound" in ROADMAP.md).
    """
    check_nat(r)
    if r < valid_r_min(f, a * b):
        raise InvalidR(f"radius {r} is not valid for the product")
    # valid radii are closed upwards, so the least common one is the largest
    p = max(1, valid_r_min(f, a), valid_r_min(f, b))
    for x, y in a.pairs:
        if x <= r and y >= p:
            p = y + 1
    for x, y in b.pairs:
        if y <= r and x >= p:
            p = x + 1
    return p


def order_counterexample(
    f: WaningFn, g: WaningFn, r: int
) -> tuple[int, int, PBij]:
    """Separating element for two waning functions that are out of order.

    Finds the least n where f(n) < g(n), the least b with f(n) < b - n <= g(n),
    and the element extending the identity on n by b - n pairs shifted past r.
    The element lies in the (g, id_n, r) neighbourhood but not the (f, id_n, b)
    one.  Raises NoWitness when f(n) >= g(n) everywhere, and BoundTooLarge
    when the element would have more than SIZE_LIMIT pairs.
    """
    check_nat(r)
    b = None
    if not f.const_omega:
        # f(n) < g(n) fails while f is OMEGA; from f's support end on f is 0
        # and g non-increasing, so it holds there only if it holds at the end
        for n, v in enumerate((*f.drops, 0), f.omega_prefix):
            if v < g(n):
                b = n + v + 1
                break
    if b is None:
        raise NoWitness("first function dominates the second pointwise")
    if b > SIZE_LIMIT:
        raise BoundTooLarge(f"the witness has {b} pairs, above {SIZE_LIMIT}")
    if r <= b:
        raise PreconditionError(f"radius {r} must exceed the separation bound {b}")
    # sources 0..n-1 then from r > b > n on, targets 0..b-1: sorted and injective
    pairs = tuple(zip((*range(n), *range(r, r + b - n)), range(b)))
    return n, b, PBij._from_sorted(pairs)


def cross_family_witness(x: int, r: int) -> PBij:
    """The element {(x, r)}: for every waning f off the top it lies in
    Dual(W(f, EMPTY, r)) but not in DomMiss(x), and its inverse lies in
    W(f, EMPTY, r) but not in ImMiss(x).  These W sets form a base at EMPTY,
    and DomMiss(x) is open in every direct topology and ImMiss(x) in every
    dual one, so off the top neither family's topology contains the other's.

    Proof: every radius is valid for EMPTY, as f(r) <= f(0) = f(|EMPTY|).
    {(r, x)} has no source below r, and its one pair is a mistake exactly
    when x < r, which f(0) >= 1 off the top allows; at the top those cases
    fail.  And x lies in the domain of {(x, r)} and the image of {(r, x)}.
    """
    check_nat(x, r)
    return PBij._from_sorted(((x, r),))


def cover_witness(
    n: int,
    h0: PBij,
    avoid: Iterable[int],
    covered_m: Iterable[int],
    includes_dommiss: bool,
) -> PBij:
    """Element of a basic set escaping a finite subfamily of the standard cover.

    The basic set fixes h0 below n and bans ``avoid`` from the image.  The
    cover consists of the sets "n maps to m" for each m plus "n is outside
    the domain".  For a non-empty subfamily the witness extends h0 at n by
    the least value outside ``avoid``, im(h0) and the covered values; for an
    empty subfamily h0 itself already works.
    """
    check_nat(n)
    avoid = nat_set(avoid)
    covered = nat_set(covered_m)
    if (h0.pairs and h0.pairs[-1][0] >= n) or not h0.image.isdisjoint(avoid):
        raise BadBase("base is not a partial bijection from n avoiding the set")
    if not includes_dommiss and not covered:
        return h0
    v = 0
    while v in avoid or h0.has_target(v) or v in covered:
        v += 1
    # n lies past every source of h0 and v outside its image
    return PBij._from_sorted(h0.pairs + ((n, v),))

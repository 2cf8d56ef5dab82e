"""Symbolic open-set descriptors with exact membership for partial bijections.

A descriptor denotes a basic or derived open set; ``member`` evaluates the
exact predicate on a finite partial bijection.  Subset and equality questions
between descriptors are settled by exhaustive checks over bounded universes
(see ``waning.harness``), never symbolically.

The refinement operations return witnesses extracted from constructive
arguments: a radius whose principal neighbourhood sits inside a given basic
set, a descriptor that rewrites a neighbourhood through the waning closure,
a radius making multiplication land inside a target neighbourhood, and
explicit separating elements for the order and compactness results.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
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
    SIZE_LIMIT,
    GenFn,
    WaningFn,
    check_nat,
    closure,
    is_omega,
    nat_set,
)
from .pbij import PBij


@dataclass(frozen=True)
class PointHit:
    """Elements whose graph contains the pair (x, y)."""

    x: int
    y: int

    def __post_init__(self):
        check_nat(self.x, self.y)


@dataclass(frozen=True)
class DomMiss:
    """Elements whose domain avoids the point x."""

    x: int

    def __post_init__(self):
        check_nat(self.x)


@dataclass(frozen=True)
class ImMiss:
    """Elements whose image avoids the point x."""

    x: int

    def __post_init__(self):
        check_nat(self.x)


@dataclass(frozen=True)
class UBasic:
    """Elements with at least n image points outside ``avoid`` and at most
    f(n) image points inside it."""

    f: Union[GenFn, WaningFn]
    n: int
    avoid: frozenset[int]

    def __post_init__(self):
        check_nat(self.n)
        object.__setattr__(self, "avoid", nat_set(self.avoid))


@dataclass(frozen=True)
class WNbhd:
    """Principal neighbourhood of g: agree with g below r and hit at most
    f(|g|) image points in range(r) outside im(g).  Raises DomainError unless
    r is a natural and InvalidDescriptor unless r is valid:
    f(r) <= f(|g|) = f(|g restricted below r|)."""

    f: WaningFn
    g: PBij
    r: int

    def __post_init__(self):
        check_nat(self.r)
        if not _wnbhd_valid(self.f, self.g, self.r):
            raise InvalidDescriptor(
                f"radius {self.r} is not valid for this neighbourhood"
            )


@dataclass(frozen=True)
class Wany:
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


@dataclass(frozen=True)
class Dual:
    """Image of the inner set under inversion."""

    inner: "SetDescriptor"


@dataclass(frozen=True)
class Intersection:
    parts: tuple["SetDescriptor", ...]

    def __init__(self, parts: Iterable["SetDescriptor"]):
        object.__setattr__(self, "parts", tuple(parts))


@dataclass(frozen=True)
class FixBelow:
    """Elements agreeing with g on all sources below r."""

    g: PBij
    r: int

    def __post_init__(self):
        check_nat(self.r)


SetDescriptor = Union[
    PointHit, DomMiss, ImMiss, UBasic, WNbhd, Wany, Dual, Intersection, FixBelow
]


def _trusted(cls, *values):
    """``cls(*values)`` for a descriptor class, built without the
    constructor's checks.  Each call states beside it why they would pass.
    It pays only where the checks cost more than this generic build: it is
    slower than ``FixBelow``'s constructor, whose one check is on ``r``."""
    d = object.__new__(cls)
    for name, value in zip(cls.__dataclass_fields__, values):
        object.__setattr__(d, name, value)
    return d


def _wnbhd_valid(f: WaningFn, g: PBij, r: int) -> bool:
    size_value = f(len(g.pairs))
    return f(r) <= size_value and f(bisect_left(g.pairs, (r,))) == size_value


def _agrees_below(h: PBij, g: PBij, r: int) -> bool:
    """True when h and g have the same pairs with source below r."""
    k = bisect_left(g.pairs, (r,))
    return bisect_left(h.pairs, (r,)) == k and h.pairs[:k] == g.pairs[:k]


def _ubasic_member(f, n: int, avoid: frozenset[int], h: PBij) -> bool:
    """Membership of h in ``UBasic(f, n, avoid)``."""
    inside = sum(1 for _, y in h.pairs if y in avoid)
    return len(h.pairs) - inside >= n and inside <= f(n)


def member(d: SetDescriptor, h: PBij) -> bool:
    """Exact membership of a finite partial bijection in the described set."""
    if isinstance(d, PointHit):
        return h.get(d.x) == d.y
    if isinstance(d, DomMiss):
        return h.get(d.x) is None
    if isinstance(d, ImMiss):
        return not h.has_target(d.x)
    if isinstance(d, UBasic):
        return _ubasic_member(d.f, d.n, d.avoid, h)
    if isinstance(d, WNbhd):
        if not _agrees_below(h, d.g, d.r):
            return False
        mistakes = sum(
            1 for _, y in h.pairs if y < d.r and not d.g.has_target(y)
        )
        return mistakes <= d.f(len(d.g))
    if isinstance(d, Wany):
        if any(x < d.n for x, _ in h.pairs):
            return False
        return any(
            all(y not in ys for _, y in h.pairs) for ys in d.families
        )
    if isinstance(d, Dual):
        return member(d.inner, h.inverse())
    if isinstance(d, Intersection):
        return all(member(part, h) for part in d.parts)
    if isinstance(d, FixBelow):
        return _agrees_below(h, d.g, d.r)
    raise TypeError(f"not a descriptor: {d!r}")


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
    check_nat(n)
    avoid = nat_set(avoid)
    if not _ubasic_member(f, n, avoid, g):
        raise NotMember("base point is outside the basic set")
    r = valid_r_min(f, g)
    if avoid:
        r = max(r, max(avoid) + 1)
    if n:
        shown = [x for x, y in g.pairs if y not in avoid]
        r = max(r, shown[n - 1] + 1)
    return r


def much_wan_witness(f: GenFn, g: PBij, r: int) -> SetDescriptor:
    """Descriptor over the original function equal to the closure neighbourhood.

    For the waning closure f' of f and a radius valid for (f', g), returns a
    set built from f alone that agrees pointwise with the (f', g, r)
    neighbourhood on finite elements.  Raises BoundTooLarge when a finite
    budget makes that set list the more than SIZE_LIMIT points of range(r).
    """
    check_nat(r)
    fp = closure(f)
    # _wnbhd_valid inlined: the witness reuses f'(|g|) and i
    size_value = fp(len(g.pairs))
    i = bisect_left(g.pairs, (r,))
    if not (fp(r) <= size_value and fp(i) == size_value):
        raise PreconditionError(f"radius {r} is not valid for the closure")
    if is_omega(size_value):
        # the mistake budget is unlimited, so only the agreement clause binds
        return FixBelow(g, r)
    if r > SIZE_LIMIT:
        raise BoundTooLarge(f"the witness avoids {r} points, above {SIZE_LIMIT}")
    # j: the first index in range(i + 1) of the least f(j) + j; past the
    # prefix f is its tail, so no later index beats the prefix's end
    costs = [v + k for k, v in enumerate(f.prefix[: i + 1])]
    if i >= len(f.prefix):
        costs.append(f.tail + len(f.prefix))
    j = costs.index(min(costs))
    b = size_value + i - f(j)
    outside = frozenset(range(r)) - g.image
    hits = sorted(y for _, y in g.pairs[:i])
    picked = frozenset(hits[: i - b])
    # UBasic checks its size and points are naturals: j is drawn from
    # range(i + 1), and the points from range(r) and the targets of g
    basic = _trusted(UBasic, f, j, outside | picked)
    return Intersection((FixBelow(g, r), basic))


def tfprime_refinement(
    f: GenFn, n: int, avoid: Iterable[int], g: PBij
) -> SetDescriptor:
    """Neighbourhood of g under the waning closure inside the original basic set.

    When the closure is still positive at |g| the same basic set over the
    closure works; otherwise a principal neighbourhood with a radius clearing
    ``avoid``, the sources of g hitting it, and the first n sources of g
    missing it.
    """
    check_nat(n)
    avoid = nat_set(avoid)
    if not _ubasic_member(f, n, avoid, g):
        raise NotMember("base point is outside the basic set")
    fp = closure(f)
    if fp(len(g.pairs)) > 0:
        # n and avoid were checked on entry, as UBasic would check them
        return _trusted(UBasic, fp, n, avoid)
    hit_sources = [x for x, y in g.pairs if y in avoid]
    miss_sources = [x for x, y in g.pairs if y not in avoid][:n]
    r = valid_r_min(fp, g)
    for point in (*avoid, *hit_sources, *miss_sources):
        r = max(r, point + 1)
    # r is a natural at least valid_r_min(fp, g), and valid radii are closed
    # upwards (see valid_r_min), so WNbhd's checks pass
    return _trusted(WNbhd, fp, g, r)


def continuity_p(f: WaningFn, a: PBij, b: PBij, r: int) -> int:
    """A joint radius meant to make products land inside the target neighbourhood.

    The radius p >= 1 is valid for both factors and clears the images of
    {0..r} under a and under the inverse of b.  It is not always the least
    one, nor always sufficient: when p < r a right factor may hit targets in
    [p, r) outside im(b) for free, and ``continuity`` fails at bound 4 on
    some seeds (see "Make continuity sound" in ROADMAP.md).
    """
    check_nat(r)
    c = a * b
    if not _wnbhd_valid(f, c, r):
        raise InvalidR(f"radius {r} is not valid for the product")
    a_bound = max((y for x, y in a.pairs if x <= r), default=-1)
    b_bound = max((x for x, y in b.pairs if y <= r), default=-1)
    # valid radii are closed upwards, so the least common one is the largest
    return max(1, valid_r_min(f, a), valid_r_min(f, b), a_bound + 1, b_bound + 1)


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
    if f.const_omega:
        n = None
    else:
        # f(i) < g(i) fails while f is OMEGA; from f's support end on f is 0
        # and g non-increasing, so it holds there only if it holds at the end
        span = range(f.omega_prefix, f.support_end + 1)
        n = next((i for i in span if f(i) < g(i)), None)
    if n is None:
        raise NoWitness("first function dominates the second pointwise")
    b = n + f(n) + 1
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
    banned = avoid | h0.image | covered
    v = 0
    while v in banned:
        v += 1
    # n lies past every source of h0 and v outside its image
    return PBij._from_sorted(h0.pairs + ((n, v),))

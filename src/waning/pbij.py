"""Finite partial bijections of the naturals.

A ``PBij`` is an injective partial map on a finite subset of the naturals,
stored as a canonically sorted tuple of ``(source, target)`` pairs.  Values
are immutable and hashable; composition applies the left factor first, so
``(a * b).get(x) == b.get(a.get(x))`` wherever ``a * b`` is defined.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable

from .errors import DomainError, PreconditionError
from .functions import check_nat


@dataclass(frozen=True)
class PBij:
    """A partial bijection whose only stored state is ``pairs``.

    Two more slots hold the lookups: ``_map``, the pairs as a dict, behind
    ``get``, ``domain`` and products, and ``_image``, the targets as a
    frozenset, behind ``has_target`` and ``image``.  Each is filled on first
    use, so an element that is never looked up holds neither.  They are not
    fields: equality, hashing, ``repr`` and pickles use ``pairs`` alone.
    """

    __slots__ = ("pairs", "_map", "_image")
    pairs: tuple[tuple[int, int], ...]

    def __init__(self, pairs: Iterable[Iterable[int]] = ()):
        fwd = {}
        targets = set()
        for x, y in pairs:
            check_nat(x, y)
            if x in fwd:
                raise DomainError(f"source {x} mapped twice")
            if y in targets:
                raise DomainError(f"target {y} hit twice")
            fwd[x] = y
            targets.add(y)
        object.__setattr__(self, "pairs", tuple(sorted(fwd.items())))

    @classmethod
    def _from_sorted(cls, canon: tuple[tuple[int, int], ...]) -> "PBij":
        """Fast path for pairs already known to be sorted and bijective."""
        self = object.__new__(cls)
        object.__setattr__(self, "pairs", canon)
        return self

    @classmethod
    def identity(cls, n: int) -> "PBij":
        check_nat(n)
        return cls._from_sorted(tuple((i, i) for i in range(n)))

    def __len__(self) -> int:
        return len(self.pairs)

    # The hot readers load a slot inside ``try`` and fill it only when it is
    # still empty: a slot load is specialised, a property call is not.
    def _lookup(self) -> dict[int, int]:
        """The pairs as a dict, filled into ``_map`` on first use."""
        try:
            return self._map
        except AttributeError:
            fwd = dict(self.pairs)
            object.__setattr__(self, "_map", fwd)
            return fwd

    def get(self, x: int, default=None):
        try:
            return self._map.get(x, default)
        except AttributeError:
            return self._lookup().get(x, default)

    def has_target(self, y: int) -> bool:
        try:
            return y in self._image
        except AttributeError:
            return y in self.image

    @property
    def domain(self) -> frozenset[int]:
        return frozenset(self._lookup())

    @property
    def image(self) -> frozenset[int]:
        """The targets, filled into ``_image`` on first use."""
        try:
            return self._image
        except AttributeError:
            image = frozenset(y for _, y in self.pairs)
            object.__setattr__(self, "_image", image)
            return image

    def __mul__(self, other: "PBij") -> "PBij":
        try:
            bmap = other._map
        except AttributeError:
            bmap = other._lookup()
        # self's pairs in source order, each target sent on through other
        # where other is defined: the product's pairs, already sorted.  An
        # explicit loop, which CPython 3.11 runs faster than a generator.
        out = []
        for x, y in self.pairs:
            if y in bmap:
                out.append((x, bmap[y]))
        return PBij._from_sorted(tuple(out))

    def inverse(self) -> "PBij":
        return PBij._from_sorted(tuple(sorted((y, x) for x, y in self.pairs)))

    def restrict(self, r: int) -> "PBij":
        """Keep exactly the pairs whose source is below ``r``."""
        check_nat(r)
        return PBij._from_sorted(tuple(p for p in self.pairs if p[0] < r))

    def extends(self, other: "PBij") -> bool:
        """True when every pair of ``other`` is a pair of self."""
        fwd = self._lookup()
        return all(fwd.get(x) == y for x, y in other.pairs)

    def __reduce__(self):
        return PBij._from_sorted, (self.pairs,)

    def __repr__(self) -> str:
        body = ", ".join(f"{x}↦{y}" for x, y in self.pairs)
        return f"PBij({{{body}}})"


EMPTY = PBij()


def collapse(g: PBij, h: PBij) -> PBij:
    """Collapse an extension ``h`` of ``g`` onto the renumbered complement.

    Removes the pairs of ``g`` from ``h`` and renumbers sources by their rank
    outside ``dom(g)`` and targets by their rank outside ``im(g)``.  The
    result has exactly ``len(h) - len(g)`` pairs.
    """
    if not h.extends(g):
        raise PreconditionError("h does not extend g")
    g_map = g._lookup()
    dom_g = [x for x, _ in g.pairs]
    im_g = sorted(g.image)
    # a point's rank outside a sorted set is the point less the set's points
    # below it: strictly increasing off the set, so the sources keep their
    # order and distinct targets stay distinct, and the pairs stay sorted
    # and bijective
    return PBij._from_sorted(
        tuple(
            (x - bisect_left(dom_g, x), y - bisect_left(im_g, y))
            for x, y in h.pairs
            if x not in g_map
        )
    )

"""The poset of separable semigroup topologies on the partial-bijection monoid.

Each topology is labelled by a waning function together with a side: the
direct family contains the domain-avoidance topology, the dual family its
image-avoidance mirror.  Containment inside one family mirrors ``preceq`` on
the labels; across families only the common top (labelled by the constant-0
function, where the two families merge) is comparable with anything, as the
``dual`` suite checks with ``cross_family_witness``.

Also provides an order embedding of arbitrary finite posets into waning
functions and DOT export of covering diagrams.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import DomainError, InvalidPoset
from .functions import CONST_ZERO, WaningFn, join, preceq
from .serialize import dumps, waning_to_obj


@dataclass(frozen=True, slots=True)
class PolishTopology:
    """The topology labelled by ``f`` on the direct side, or on the dual side
    when ``dual`` is set.  Raises DomainError unless f is a WaningFn and
    dual a bool."""

    f: WaningFn
    dual: bool = False

    def __post_init__(self):
        if not isinstance(self.f, WaningFn):
            raise DomainError(f"not a waning function: {self.f!r}")
        if not isinstance(self.dual, bool):
            raise DomainError(f"dual must be a bool, got {self.dual!r}")
        # the two families share their top element; keep one spelling of it
        if self.dual and self.f == CONST_ZERO:
            object.__setattr__(self, "dual", False)


class Comparison(enum.Enum):
    EQUAL = "equal"
    FINER_STRICT = "finer"
    COARSER_STRICT = "coarser"
    INCOMPARABLE = "incomparable"


def compare(t1: PolishTopology, t2: PolishTopology) -> Comparison:
    """Order t1 against t2 under containment of topologies."""
    if t1 == t2:
        return Comparison.EQUAL
    if t1.dual == t2.dual:
        if preceq(t1.f, t2.f):
            return Comparison.COARSER_STRICT
        if preceq(t2.f, t1.f):
            return Comparison.FINER_STRICT
        return Comparison.INCOMPARABLE
    # mixed families: after canonicalisation only the top remains comparable
    if t1.f == CONST_ZERO:
        return Comparison.FINER_STRICT
    if t2.f == CONST_ZERO:
        return Comparison.COARSER_STRICT
    return Comparison.INCOMPARABLE


def join_topology(t1: PolishTopology, t2: PolishTopology) -> PolishTopology:
    """Least upper bound; mixed families meet only at the common top."""
    if t1.dual == t2.dual:
        return PolishTopology(join(t1.f, t2.f), t1.dual)
    return PolishTopology(CONST_ZERO)


@dataclass(frozen=True, slots=True)
class FinitePoset:
    """A partial order on string labels.  Raises DomainError unless
    ``elements`` and ``leq`` are lists or tuples, each ``leq`` entry a list
    or tuple of two labels and every label a string, and InvalidPoset unless
    ``leq`` is reflexive, antisymmetric and transitive on the elements."""

    elements: tuple[str, ...]
    leq: frozenset[tuple[str, str]]

    def __init__(self, elements: Sequence[str], leq: Sequence[Sequence[str]]):
        # a string is iterable, and would be read as a list of labels or a pair
        if not isinstance(elements, (list, tuple)):
            raise DomainError(f"expected an array of labels, got {elements!r}")
        if not isinstance(leq, (list, tuple)) or not all(
            isinstance(pair, (list, tuple)) and len(pair) == 2 for pair in leq
        ):
            raise DomainError(f"expected an array of label pairs, got {leq!r}")
        elements, pairs = tuple(elements), tuple(leq)
        for label in (*elements, *(label for pair in pairs for label in pair)):
            if not isinstance(label, str):
                raise DomainError(f"poset labels must be strings, got {label!r}")
        leq = frozenset((a, b) for a, b in pairs)
        if len(set(elements)) != len(elements):
            raise InvalidPoset("duplicate labels")
        universe = set(elements)
        for a, b in leq:
            if a not in universe or b not in universe:
                raise InvalidPoset(f"relation mentions unknown label ({a}, {b})")
        for a in elements:
            if (a, a) not in leq:
                raise InvalidPoset(f"missing reflexive pair for {a}")
        for a, b in leq:
            if a != b and (b, a) in leq:
                raise InvalidPoset(f"antisymmetry fails on ({a}, {b})")
        for a, b in leq:
            for c in elements:
                if (b, c) in leq and (a, c) not in leq:
                    raise InvalidPoset(f"transitivity fails on ({a}, {b}, {c})")
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "leq", leq)

    def __repr__(self) -> str:
        # the pairs sorted: a frozenset's order is no part of its value, and
        # equal posets, such as a poset and its unpickled copy, can differ in it
        return f"FinitePoset(elements={self.elements!r}, leq={sorted(self.leq)!r})"

    def le(self, a: str, b: str) -> bool:
        return (a, b) in self.leq


def embed_poset(poset: FinitePoset) -> Mapping[str, WaningFn]:
    """Order embedding of a finite poset into waning functions.

    Element x maps to the function whose value at i < n is 3(n-i)+1 when the
    i-th element lies below x and 3(n-i)+2 otherwise, with 0 from n on.  The
    strictly separated value bands keep the image functions waning, and
    downset containment turns into the reversed pointwise order.
    """
    n = len(poset.elements)
    if n < 1:
        raise InvalidPoset("embedding needs at least one element")
    out = {}
    for x in poset.elements:
        values = tuple(
            3 * (n - i) + 1 + (0 if poset.le(e, x) else 1)
            for i, e in enumerate(poset.elements)
        )
        out[x] = WaningFn(drops=values)
    return out


def _covers(fs: list[WaningFn]) -> list[tuple[int, int]]:
    strict = {
        (i, j)
        for i in range(len(fs))
        for j in range(len(fs))
        if i != j and preceq(fs[i], fs[j])
    }
    return sorted(
        (i, j)
        for i, j in strict
        if not any((i, k) in strict and (k, j) in strict for k in range(len(fs)))
    )


def hasse_dot(fs: Iterable[WaningFn]) -> str:
    """DOT digraph of the covering relation on the given waning functions.

    Nodes are labelled by the serialized canonical form; edges run from the
    coarser label to each of its covers.  Node order is deterministic.
    """
    nodes = sorted(set(fs), key=WaningFn.sort_key)
    lines = ["digraph waning_order {", "  rankdir=BT;"]
    for i, w in enumerate(nodes):
        label = dumps(waning_to_obj(w)).replace('"', '\\"')
        lines.append(f'  n{i} [label="{label}"];')
    for i, j in _covers(nodes):
        lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"

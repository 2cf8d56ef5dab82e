"""Exhaustive and sampled verification over bounded universes.

The universe with bound B holds every partial bijection whose domain and
image sit inside range(B); refuting a containment on the slice refutes it
outright, since intersecting with the slice preserves inclusions.  All checks
report counterexamples in one canonical order, sorted once by ``_report``,
so reports are deterministic for a fixed (bound, seed, sample) regardless
of worker count; only the elapsed-time field varies between runs.

Subset and equality checks do not scan the universe.  Each starts from a
scope (P, r), the elements whose pairs with source below r are exactly P:
members of a W or FixBelow set agree with g below r, an intersection takes a
part's scope, and other kinds give the whole universe.  Membership in a
descriptor reads only an element's image and its pairs with source below the
descriptor's reach, so a check generates the classes of its scope under
(pairs below R, image), R covering both reaches, each with its first
element, tests that element alone, and lists a failing class whole.  The
continuity check generates its left factors the same way, as the classes of
W(f, a, p)'s scope by (pairs below max(p, r), image) whose first element is
a member; it counts a class by its size and lists it only when one of its
products fails.  Its right factors are the members of W(f, b, p) in its
scope slice of the sorted universe, through ``_scope_members``; apart from
it, only the seeded draws of basis and much-wan read that order.  Every
element of the slice agrees with b below p, so membership is tested once
per image.  The check uses every right factor it keeps, and universe
elements keep the lookups that a generated element would build again.  In
the same pass it groups right factors by their values on the left classes'
low targets and the sources they send below r outside im(a * b); it tests
one product per class pair, and when that product fails reports every
product of the pair, once per factor pair.  The d-map check builds the
up-set of id_n as the image of I_{B-n} under the shift, an isomorphism, and
checks that the collapse inverts it.
"""

from __future__ import annotations

import itertools
import math
import os
import random
import time
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from operator import attrgetter, itemgetter
from typing import Optional

from . import descriptors as de
from .errors import (
    BoundTooLarge,
    DomainError,
    NoWitness,
    PreconditionError,
    UnknownSuite,
)
from .functions import (
    CONST_OMEGA,
    CONST_ZERO,
    OMEGA,
    SIZE_LIMIT,
    GenFn,
    WaningFn,
    check_nat,
    closure,
    count_with_first_value_below,
    descending_chain_element,
    enumerate_below,
    preceq,
)
from .pbij import EMPTY, PBij, collapse
from .serialize import descriptor_to_obj, dumps, fn_to_obj, pb_to_obj
from .topology import Comparison, FinitePoset, PolishTopology, compare, embed_poset

MAX_BOUND = 7
_PAIRS = attrgetter("pairs")


def universe_size(bound: int) -> int:
    """Closed form: sum over k of C(bound, k)^2 * k!."""
    check_nat(bound)
    return sum(
        math.comb(bound, k) ** 2 * math.factorial(k) for k in range(bound + 1)
    )


def _check_bound(bound: int) -> None:
    check_nat(bound, name="bound")
    if bound > MAX_BOUND:
        raise BoundTooLarge(f"bound {bound} exceeds the maximum {MAX_BOUND}")


# typed: 1.0 and True equal 1, and must not find the cached universe of bound 1
@lru_cache(maxsize=None, typed=True)
def enumerate_universe(bound: int) -> tuple[PBij, ...]:
    """All partial bijections inside range(bound), in lexicographic order of
    their sorted pairs, which ``_scope_members`` and the seeded draws of
    basis and much-wan read.

    A pre-order walk from the empty map: each element is extended by one
    pair (x, y), x above every source so far and y an unused target, trying
    x and then y in increasing order, and is emitted when first reached.
    Each element is reached once, through the prefixes of its sorted pairs,
    and its tuple is its parent's plus one pair from a table built once, so
    all elements share their pair tuples.  The walk is lexicographic: by
    induction on the depth, the walk below an element emits it and then its
    extensions in order, since a prefix sorts before its extensions, and
    two children's extensions differ first at the child's pair, so the walk
    below a child comes wholly before the walk below the next one.  The
    recursion is at most bound + 1 calls deep.
    """
    _check_bound(bound)
    table = [[(x, y) for y in range(bound)] for x in range(bound)]
    used = [False] * bound
    elements = []

    def walk(pairs, start):
        elements.append(PBij._from_sorted(pairs))
        for x in range(start, bound):
            for y, pair in enumerate(table[x]):
                if not used[y]:
                    used[y] = True
                    walk(pairs + (pair,), x + 1)
                    used[y] = False

    walk((), 0)
    return tuple(elements)


def _scope_classes(
    below: tuple[tuple[int, int], ...], r: int, reach: int, bound: int
):
    """The scope (below, r) of the universe, split into classes by (pairs
    with source below R, image), R = max(r, reach) clamped to ``bound``.

    Each class comes as (rep, (head, targets, tail)): rep is its first
    element, ``_class_elements(head, targets, tail)`` lists its elements,
    and it has math.perm(len(tail), len(targets)) elements.  The scope is
    empty when ``below`` has a point at or past the bound.  Otherwise a
    class is fixed by
    - Q, a partial injection from sources in [r, R) to targets outside
      im(below), so that head = below + Q are the pairs below R, and
    - S, a set of the remaining targets with |S| <= bound - R, the image
      of the pairs with source at least R, as ``targets`` in increasing
      order; ``tail`` is range(R, bound).
    Its elements send a |S|-subset of the tail onto S in every way, which is
    C(|tail|, |S|) * |S|! = perm(|tail|, |S|) ways.  Every element of the
    scope falls in exactly one class, the one of its own pairs below R and
    image.  The first element listed takes the first len(targets) points of
    ``tail`` and keeps ``targets`` in order, so rep is head +
    tuple(zip(tail, targets)): zip stops at ``targets``, which is never
    longer than ``tail``, and the pairs are sorted, as head's sources lie
    below tail's first point.
    """
    if any(x >= bound or y >= bound for x, y in below):
        return
    top = min(max(r, reach), bound)
    used = {y for _, y in below}
    free = [y for y in range(bound) if y not in used]
    low, tail = range(r, top), range(top, bound)
    for k in range(len(low) + 1):
        for xs in itertools.combinations(low, k):
            for ys in itertools.permutations(free, k):
                head = below + tuple(zip(xs, ys))
                rest = [y for y in free if y not in ys]
                for size in range(min(len(tail), len(rest)) + 1):
                    for targets in itertools.combinations(rest, size):
                        rep = PBij._from_sorted(head + tuple(zip(tail, targets)))
                        yield rep, (head, targets, tail)


def _class_elements(head, targets, tail):
    for xs in itertools.combinations(tail, len(targets)):
        for ys in itertools.permutations(targets):
            yield PBij._from_sorted(head + tuple(zip(xs, ys)))


@dataclass(frozen=True, slots=True)
class CheckReport:
    name: str
    cases: int
    counterexamples: tuple[tuple[str, PBij], ...]
    elapsed_ms: float

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def to_obj(self) -> dict:
        return {
            "suite": self.name,
            "cases": self.cases,
            "counterexamples": [
                {"inputs": inputs, "witness": pb_to_obj(w)}
                for inputs, w in self.counterexamples
            ],
            "ms": round(self.elapsed_ms, 3),
        }

    def summary(self) -> str:
        verdict = "pass" if self.ok else f"FAIL ({len(self.counterexamples)} counterexamples)"
        return (
            f"{self.name}: {verdict}, {self.cases} cases, "
            f"{self.elapsed_ms:.0f} ms"
        )


def _report(name: str, cases: int, found, started: float) -> CheckReport:
    """Sorts ``found`` once, by the witness's JSON and then the label: the key
    holds all a report prints, so the order found in cannot show.  A failing
    run repeats few witnesses, so each distinct one is serialised once."""
    text = {w: dumps(pb_to_obj(w)) for w in {w for _, w in found}}
    return CheckReport(
        name=name,
        cases=cases,
        counterexamples=tuple(sorted(found, key=lambda c: (text[c[1]], c[0]))),
        elapsed_ms=(time.perf_counter() - started) * 1000.0,
    )


def _labelled(found: list[tuple[str, PBij]], label) -> list[tuple[str, PBij]]:
    """``found``'s (suffix, element) pairs with ``dumps(label())`` before
    each suffix.  Most cases find nothing, so a label is built only for a
    counterexample."""
    if not found:
        return found
    text = dumps(label())
    return [(text + suffix, h) for suffix, h in found]


def _failing(scopes, reach: int, bound: int, fails) -> list[PBij]:
    """The elements h of the ``scopes`` (``de._reach`` triples) with
    ``fails(h)``, each once, in the order their classes are generated;
    ``_report`` alone orders them.  The scopes are disjoint, and ``fails``
    reads only h's membership in sets whose reaches ``reach`` covers.  Each
    scope is split into classes by (pairs below ``reach``, image);
    membership in each set is constant on a class, as it reads only those,
    so the first element that comes with each class alone is tested, and
    only a class that fails is listed, whole."""
    _check_bound(bound)
    found = []
    for below, r, _ in scopes:
        for rep, cls in _scope_classes(below, r, reach, bound):
            if fails(rep):
                found += _class_elements(*cls)
    return found


def _escapes(d1: de.SetDescriptor, d2: de.SetDescriptor, bound: int) -> list[PBij]:
    """Universe elements in the first set but not the second."""
    s1, s2 = de._reach(d1), de._reach(d2)
    return _failing(
        [s1], max(s1[2], s2[2]), bound, lambda h: de.member(d1, h) and not de.member(d2, h)
    )


def _mismatches(d1: de.SetDescriptor, d2: de.SetDescriptor, bound: int) -> list[PBij]:
    """Universe elements in exactly one of the two sets.

    Their scopes (P1, r1) and (P2, r2), r1 <= r2, are nested or disjoint.
    An element of both has P1 as its pairs below r1 and P2 as its pairs
    below r2, so P2's pairs below r1 are P1.  And when they are, an element
    whose pairs below r2 are P2 has P1 as its pairs below r1, so the second
    scope lies inside the first.  So the first alone is scanned when P2's
    pairs below r1 are P1, and otherwise both, which share no element.
    """
    wide, narrow = sorted((de._reach(d) for d in (d1, d2)), key=itemgetter(1))
    (p1, r1, reach1), (p2, _, reach2) = wide, narrow
    nested = p2[: bisect_left(p2, (r1,))] == p1
    scopes = [wide] if nested else [wide, narrow]
    return _failing(
        scopes, max(reach1, reach2), bound, lambda h: de.member(d1, h) != de.member(d2, h)
    )


def subset_check(
    d1: de.SetDescriptor, d2: de.SetDescriptor, bound: int
) -> CheckReport:
    """Report every universe element in the first set but not the second."""
    started = time.perf_counter()
    label = dumps({"d1": descriptor_to_obj(d1), "d2": descriptor_to_obj(d2)})
    found = [(label, h) for h in _escapes(d1, d2, bound)]
    return _report("subset", universe_size(bound), found, started)


def equality_check(
    d1: de.SetDescriptor, d2: de.SetDescriptor, bound: int
) -> CheckReport:
    """Report every universe element in exactly one of the two sets, labelled
    as ``subset_check`` labels it: by the set it lies in, then the other."""
    started = time.perf_counter()
    o1, o2 = descriptor_to_obj(d1), descriptor_to_obj(d2)
    forward, backward = dumps({"d1": o1, "d2": o2}), dumps({"d1": o2, "d2": o1})
    found = [
        (forward if de.member(d1, h) else backward, h)
        for h in _mismatches(d1, d2, bound)
    ]
    return _report("equality", 2 * universe_size(bound), found, started)


def _scope_members(d: de.SetDescriptor, bound: int, key) -> list[list[PBij]]:
    """The members of ``d`` in the universe grouped by ``key``, each group in
    universe order and the groups in the order first met, for a descriptor
    whose reach is at most its scope radius (W and FixBelow).

    In the sorted universe d's scope (P, r) is the element whose pairs are
    exactly P, then the run of elements that start with P and continue with
    a source of at least r.  Every element there has P as its pairs below
    the reach, so membership reads only the image, and is tested once per
    image.  The seeded draws of basis and much-wan read the order too.
    """
    us = enumerate_universe(bound)
    below, r, _ = de._reach(d)
    at = bisect_left(us, below, key=_PAIRS)
    exact = us[at : at + 1] if at < len(us) and us[at].pairs == below else ()
    start = bisect_left(us, below + ((r,),), key=_PAIRS)
    stop = bisect_left(us, below + ((bound,),), key=_PAIRS)
    verdicts: dict = {}
    groups: dict = {}
    for h in itertools.chain(exact, us[start:stop]):
        image = h.image
        if image not in verdicts:
            verdicts[image] = de.member(d, h)
        if verdicts[image]:
            groups.setdefault(key(h), []).append(h)
    return list(groups.values())


def product_containment_check(
    f: WaningFn, a: PBij, b: PBij, bound: int
) -> CheckReport:
    """Verify products of the two factor neighbourhoods land in the target one.

    Factors are grouped into classes whose products all share one
    membership in W(f, c, r), c = a * b, and one product per class pair is
    tested.  Proof: h is in W(f, c, r) when its pairs with source below r
    are c's, and at most f(|c|) of its pairs hit a target below r outside
    im(c); once the first clause holds, only pairs with source >= r can
    count.  For h = d * e:

    - the pairs with source below r are (x, e(y)) for the pairs (x, y) of
      d with x < r and y in dom(e), so they depend on those pairs of d and
      on e at their targets;
    - the counted pairs with source >= r are one per target y of d's other
      pairs that lies in S(e), the sources that e sends below r outside
      im(c); with d's low pairs fixed, d's image fixes those targets.

    So a left factor d matters only through (its pairs below r, im(d)), and
    a right factor e only through (e at every low target of the left
    classes, S(e)).  The left classes are generated: the scope classes of
    W(f, a, p) by (pairs below max(p, r), image), which refine the first
    key, kept when their first element is a member, as membership in
    W(f, a, p) reads only its pairs below p and its image.  A left class is
    counted by its size, math.perm(|tail|, |targets|), and listed only when
    one of its products fails.  The right factors are the members of
    W(f, b, p) in its scope slice of the sorted universe, through
    ``_scope_members``, tested once per image and grouped by the second key
    in the same pass.  A class pair whose tested product fails has every
    product reported, once per factor pair that forms it; ``cases`` still
    counts every factor pair.  A bound past MAX_BOUND is refused first.
    ``_report`` alone sorts the products; ``continuity`` takes them
    unsorted, into its one report.
    """
    started = time.perf_counter()
    found, cases = _product_failures(f, a, b, bound)
    return _report("product-containment", cases, found, started)


def _product_failures(f: WaningFn, a: PBij, b: PBij, bound: int) -> tuple[list, int]:
    """``product_containment_check``'s counterexamples, unsorted, and cases."""
    _check_bound(bound)
    c = a * b
    r = de.valid_r_min(f, c)
    p = de.continuity_p(f, a, b, r)
    wa = de.WNbhd(f, a, p)
    wb = de.WNbhd(f, b, p)
    wc = de.WNbhd(f, c, r)
    left = [
        (rep, cls)
        for rep, cls in _scope_classes(de._reach(wa)[0], p, r, bound)
        if de.member(wa, rep)
    ]
    shown = sorted({y for d, _ in left for x, y in d.pairs if x < r})
    low_out = frozenset(range(r)) - c.image

    def right_key(e):
        return tuple(e.get(y) for y in shown), tuple(x for x, y in e.pairs if y in low_out)

    right_classes = _scope_members(wb, bound, right_key)
    found = []
    for rep, cls in left:
        for es in right_classes:
            if not de.member(wc, rep * es[0]):
                found += [("", d * e) for d in _class_elements(*cls) for e in es]
    found = _labelled(
        found,
        lambda: {
            "f": fn_to_obj(f), "a": pb_to_obj(a), "b": pb_to_obj(b), "p": p, "r": r
        },
    )
    rights = sum(map(len, right_classes))
    cases = sum(math.perm(len(tail), len(k)) for _, (_, k, tail) in left) * rights
    return found, cases


# ---------------------------------------------------------------------------
# fixed waning-function sample
# ---------------------------------------------------------------------------


def waning_sample() -> tuple[WaningFn, ...]:
    """The fixed 50-function sample used by the seeded suites.

    Covers every branch behaviour: all omega-free functions with at most
    three drops drawn from {1..5}, the constant-OMEGA function, leading-OMEGA
    forms of several depths, the longer staircases, and a stretch of the
    descending chain.
    """
    out: list[WaningFn] = []
    for size in range(4):
        for combo in itertools.combinations((5, 4, 3, 2, 1), size):
            out.append(WaningFn(drops=combo))
    out.append(CONST_OMEGA)
    out.append(WaningFn(omega_prefix=1, drops=(2, 1)))
    out.append(WaningFn(omega_prefix=2, drops=(1,)))
    for combo in itertools.combinations((5, 4, 3, 2, 1), 4):
        out.append(WaningFn(drops=combo))
    out.append(WaningFn(drops=(5, 4, 3, 2, 1)))
    for n in range(6, 13):
        out.append(descending_chain_element(n))
    out.extend(
        [
            WaningFn(omega_prefix=1, drops=(1,)),
            WaningFn(omega_prefix=1, drops=(3, 1)),
            WaningFn(omega_prefix=2, drops=(2, 1)),
            WaningFn(omega_prefix=3, drops=(1,)),
            WaningFn(omega_prefix=1, drops=(4, 2)),
            WaningFn(omega_prefix=2, drops=(3, 1)),
            WaningFn(omega_prefix=4, drops=(2, 1)),
            WaningFn(omega_prefix=5, drops=(1,)),
        ]
    )
    return tuple(out)


def _rand_subset(rng: random.Random, pool: range, max_size: int) -> frozenset[int]:
    size = min(rng.randint(0, max_size), len(pool))
    return frozenset(rng.sample(list(pool), size))


def _rand_genfn(rng: random.Random) -> GenFn:
    values: list = [0, 1, 2, 3, 4, OMEGA]
    prefix = tuple(rng.choice(values) for _ in range(rng.randint(0, 3)))
    tail = rng.choice([0, OMEGA])
    omega = rng.choice([0, OMEGA])
    return GenFn(prefix=prefix, tail=tail, omega=omega)


# ---------------------------------------------------------------------------
# suite batteries
# ---------------------------------------------------------------------------


def _draw_basic(rng: random.Random, bound: int, draw_f):
    """(f, g, n, avoid) with g in UBasic(f, n, avoid): f from ``draw_f(rng)``,
    g from the universe, drawn in that order until g lies in the set."""
    us = enumerate_universe(bound)
    while True:
        f = draw_f(rng)
        g = rng.choice(us)
        n = rng.randint(0, 3)
        avoid = _rand_subset(rng, range(bound + 1), 3)
        if de.member(de.UBasic(f, n, avoid), g):
            return f, g, n, avoid


def _basis_cases(bound: int, seed: int, sample: int) -> list:
    rng = random.Random(seed)
    fs = waning_sample()
    cases = []
    for _ in range(sample):
        basic = _draw_basic(rng, bound, lambda rng: rng.choice(fs))
        cases.append(basic + (rng.randint(0, 3), rng.randint(0, 3)))
    return cases


def _basis_eval(bound: int, case) -> list[tuple[str, PBij]]:
    f, g, n, avoid, extra_r, extra_p = case
    r = de.valid_r_min(f, g) + extra_r
    p = r + extra_p
    wide = de.WNbhd(f, g, r)
    narrow = de.WNbhd(f, g, p)
    basic = de.UBasic(f, n, avoid)
    refined = de.WNbhd(f, g, de.basis_refinement(f, n, avoid, g))
    found = [("#monotone", h) for h in _escapes(narrow, wide, bound)]
    found += [("#refine", h) for h in _escapes(refined, basic, bound)]
    return _labelled(
        found, lambda: {"f": fn_to_obj(f), "g": pb_to_obj(g), "n": n, "X": sorted(avoid)}
    )


def _much_wan_cases(bound: int, seed: int, sample: int) -> list:
    rng = random.Random(seed)
    us = enumerate_universe(bound)
    cases = []
    for _ in range(sample):
        f = _rand_genfn(rng)
        g = rng.choice(us)
        r = de.valid_r_min(closure(f), g) + rng.randint(0, 2)
        cases.append(("equal", f, g, r, None, None))
    for _ in range(sample):
        f, g, n, avoid = _draw_basic(rng, bound, _rand_genfn)
        cases.append(("refine", f, g, None, n, avoid))
    return cases


def _much_wan_eval(bound: int, case) -> list[tuple[str, PBij]]:
    kind, f, g, r, n, avoid = case
    if kind == "equal":
        # the cases pick r valid for (closure(f), g), so a refusal means the
        # witness and closure disagree on the valid radii; g is reported
        try:
            built = de.much_wan_witness(f, g, r)
        except PreconditionError:
            found = [("#radius", g)]
        else:
            target = de.WNbhd(closure(f), g, r)
            found = [("#equal", h) for h in _mismatches(built, target, bound)]
        return _labelled(found, lambda: {"f": fn_to_obj(f), "g": pb_to_obj(g), "r": r})
    basic = de.UBasic(f, n, avoid)
    refined = de.tfprime_refinement(f, n, avoid, g)
    # the witness builds its neighbourhood without WNbhd's radius check
    if isinstance(refined, de.WNbhd) and refined.r < de.valid_r_min(refined.f, refined.g):
        found = [("#radius", g)]
    else:
        found = [] if de.member(refined, g) else [("#base-point", g)]
        found += [("#refine", h) for h in _escapes(refined, basic, bound)]
    return _labelled(
        found, lambda: {"f": fn_to_obj(f), "g": pb_to_obj(g), "n": n, "X": sorted(avoid)}
    )


def _continuity_cases(bound: int, seed: int, sample: int) -> list:
    rng = random.Random(seed)
    fs = waning_sample()
    small = enumerate_universe(3)
    # every case scans I_bound: built here, as basis and much-wan do, so that
    # run_suite's estimate of the rest, taken from the first case, omits it
    enumerate_universe(bound)
    return [
        (rng.choice(fs), rng.choice(small), rng.choice(small))
        for _ in range(sample)
    ]


def _continuity_eval(bound: int, case) -> list[tuple[str, PBij]]:
    return _product_failures(*case, bound)[0]


def _order_cases(bound: int, seed: int, sample: int) -> list:
    fs = waning_sample()[:sample]
    return [(f, g) for f in fs for g in fs]


def _safe_radius(f: WaningFn, g: WaningFn) -> int:
    ends = [0 if w.const_omega else w.support_end for w in (f, g)]
    return sum(ends) + max(f.drops, default=0) + 2


def _order_eval(bound: int, case) -> list[tuple[str, PBij]]:
    f, g = case
    ordered = preceq(f, g)
    try:
        r = _safe_radius(f, g)
        n, b, h = de.order_counterexample(f, g, r)
        ident = PBij.identity(n)
        separated = de.member(de.WNbhd(g, ident, r), h) and not de.member(
            de.WNbhd(f, ident, b), h
        )
        witness = h
    except NoWitness:
        separated = False
        witness = EMPTY
    if ordered == separated:
        label = dumps({"f": fn_to_obj(f), "g": fn_to_obj(g)})
        return [(label + "#dichotomy", witness)]
    return []


def _remark_cases(bound: int, seed: int, sample: int) -> list:
    cases = []
    for n in (0, 2):
        cases.append(("empty-family", n, None))
        cases.append(("single-point", n, None))
        cases.append(("initial-segment", n, 2))
        for r in (3, 5):
            cases.append(("cosize-three", n, r))
    return cases


def _remark_eval(bound: int, case) -> list[tuple[str, PBij]]:
    kind, n, param = case
    dom_clear = [de.DomMiss(i) for i in range(n)]
    if kind == "empty-family":
        lhs = de.Wany(n, [frozenset()])
        rhs = de.Intersection(dom_clear)
    elif kind == "single-point":
        lhs = de.Wany(n, [frozenset({0})])
        rhs = de.Intersection(dom_clear + [de.ImMiss(0)])
    elif kind == "initial-segment":
        lhs = de.Wany(n, [frozenset(range(param + 1))])
        rhs = de.Intersection(dom_clear + [de.ImMiss(i) for i in range(param + 1)])
    else:
        # sets of co-size 3 inside range(param); missing one of them caps the
        # image hits in range(param) at 3
        lhs = de.Wany(
            n,
            [frozenset(ys) for ys in itertools.combinations(range(param), param - 3)],
        )
        cap = de.UBasic(GenFn(prefix=(), tail=3, omega=3), 0, range(param))
        rhs = de.Intersection(dom_clear + [cap])
    return _labelled(
        [("", h) for h in _mismatches(lhs, rhs, bound)],
        lambda: {"identity": kind, "n": n, "param": param},
    )


def _dual_cases(bound: int, seed: int, sample: int) -> list:
    """One case per sampled f, each holding what no f changes, built once
    per run: the dual-side topology of every g of the sample, and the
    ``_cross_family_witnesses``.  A witness, its inverse and its DomMiss and
    ImMiss verdicts depend on (x, r) alone, and ``compare``'s right side on
    g alone, so each case builds only its own W(f, EMPTY, r) and Dual per r
    and one direct-side topology."""
    fs = waning_sample()
    duals = [PolishTopology(g, dual=True) for g in fs]
    witnesses = _cross_family_witnesses(bound)
    return [(f, fs, duals, witnesses) for f in fs[:sample]]


def _cross_family_witnesses(bound: int) -> list:
    """(x, r, h, inverse, avoided) for x < bound and r < 2 * bound, x-major:
    h is ``cross_family_witness(x, r)``, and avoided whether h lies in
    DomMiss(x) or its inverse in ImMiss(x)."""
    found = []
    for x in range(bound):
        for r in range(2 * bound):
            h = de.cross_family_witness(x, r)
            inverse = h.inverse()
            avoided = de.member(de.DomMiss(x), h) or de.member(de.ImMiss(x), inverse)
            found.append((x, r, h, inverse, avoided))
    return found


def _cross_family_failures(
    f: WaningFn, bound: int, witnesses: list
) -> list[tuple[str, PBij]]:
    """The ``witnesses`` that are avoided, or where h is outside
    Dual(W(f, EMPTY, r)) or its inverse outside W(f, EMPTY, r)."""
    nbhds = [de.WNbhd(f, EMPTY, r) for r in range(2 * bound)]
    duals = [de.Dual(w) for w in nbhds]
    found = []
    for x, r, h, inverse, avoided in witnesses:
        if avoided or not (de.member(duals[r], h) and de.member(nbhds[r], inverse)):
            label = dumps({"f": fn_to_obj(f), "x": x, "r": r})
            found.append((label + "#witness", h))
    return found


def _dual_eval(bound: int, case) -> list[tuple[str, PBij]]:
    """Across the two families only the top is comparable: off the top the
    witnesses separate them, and ``compare`` agrees on the whole sample."""
    f, fs, duals, witnesses = case
    found = [] if f == CONST_ZERO else _cross_family_failures(f, bound, witnesses)
    direct = PolishTopology(f)
    for g, dual in zip(fs, duals):
        order = compare(direct, dual)
        if (order == Comparison.INCOMPARABLE) != (CONST_ZERO not in (f, g)):
            label = dumps({"f": fn_to_obj(f), "g": fn_to_obj(g)})
            found.append((label + "#compare", EMPTY))
    return found


def _dmap_cases(bound: int, seed: int, sample: int) -> list:
    return [0, 1, 2]


def _dmap_eval(bound: int, case) -> list[tuple[str, PBij]]:
    """phi = collapse(id_n, .) must invert the shift s(k) = id_n + shift_n(k)
    on I_{B-n}, whose image is U, the elements that extend id_n; U is built
    as that image, in universe order, and is empty when n > B.  Each
    h = s(k) with phi(h) != k is reported.  This decides that phi is an
    isomorphism of U onto I_{B-n}: s is injective, and
    s(h)s(k) = id_n + shift_n(h)shift_n(k) = s(hk), so s is a monoid
    isomorphism of I_{B-n} onto U, and if phi(s(k)) = k for every k then
    phi = s^-1, an isomorphism too."""
    n = case
    if n > bound:
        return []
    g = PBij.identity(n)
    label = dumps({"idempotent": pb_to_obj(g)}) + "#inverse"
    found = []
    for k in enumerate_universe(bound - n):
        h = PBij._from_sorted(g.pairs + tuple((x + n, y + n) for x, y in k.pairs))
        if collapse(g, h) != k:
            found.append((label, h))
    return found


def _census_cases(bound: int, seed: int, sample: int) -> list:
    return list(range(11))


def _census_eval(bound: int, case) -> list[tuple[str, PBij]]:
    c = case
    if count_with_first_value_below(c) != 2**c:
        return [(dumps({"c": c}), EMPTY)]
    return []


def _chains_cases(bound: int, seed: int, sample: int) -> list:
    rng = random.Random(seed)
    cases: list = [("chain", n, None) for n in range(100)]
    for _ in range(sample):
        size = rng.randint(1, 4)
        drops = tuple(sorted(rng.sample(range(1, 9), size), reverse=True))
        cases.append(("below", None, WaningFn(drops=drops)))
    return cases


def _longest_chain(fns: list[WaningFn]) -> int:
    # total value decreases along preceq, so sorting by it is topological; and
    # distinct functions with equal totals are incomparable, so drop duplicates
    def total(w: WaningFn) -> int:
        return sum(w.drops)

    # levels[d] holds the functions whose longest chain ending there has
    # d + 1 elements: one above the highest level holding a predecessor
    levels: list[list[WaningFn]] = []
    for w in sorted(dict.fromkeys(fns), key=total, reverse=True):
        d = len(levels)
        while d and not any(preceq(v, w) for v in levels[d - 1]):
            d -= 1
        if d == len(levels):
            levels.append([])
        levels[d].append(w)
    return len(levels)


def _chains_eval(bound: int, case) -> list[tuple[str, PBij]]:
    kind, n, f = case
    if kind == "chain":
        e1 = descending_chain_element(n)
        e2 = descending_chain_element(n + 1)
        ok = preceq(e2, e1) and e1 != e2 and not preceq(e1, e2)
        return [] if ok else [(dumps({"chain": n}), EMPTY)]
    below = enumerate_below(f)
    cap = math.prod(f(i) + 1 for i in range(f.support_end))
    depth_cap = 1 + sum(f(i) for i in range(f.support_end))
    if len(below) > cap or _longest_chain(below) > depth_cap:
        return [(dumps({"f": fn_to_obj(f)}), EMPTY)]
    return []


_LABELS = ("a", "b", "c", "d")


def all_posets() -> list[FinitePoset]:
    """Every labeled poset on 1 to 4 elements: the reflexive relations that
    ``FinitePoset`` accepts, in the order they are enumerated."""
    out = []
    for n in range(1, len(_LABELS) + 1):
        labels = _LABELS[:n]
        reflexive = [(a, a) for a in labels]
        # the relations over the off-diagonal pairs in the order of
        # itertools.product((False, True), ...): each without the pair, then
        # with it.  FinitePoset refuses a pair in both directions, so a
        # relation is dropped at its first such pair
        relations: list[list] = [[]]
        for a, b in ((a, b) for a in labels for b in labels if a != b):
            relations = [
                grown
                for strict in relations
                for grown in (
                    (strict,) if (b, a) in strict else (strict, strict + [(a, b)])
                )
            ]
        for strict in relations:
            below = set(strict)
            # and it refuses a < b < c without a < c
            if any(
                (a, c) not in below for a, b in strict for b2, c in strict if b2 == b
            ):
                continue
            out.append(FinitePoset(labels, reflexive + strict))
    return out


def _embed_cases(bound: int, seed: int, sample: int) -> list:
    return all_posets()


def _embed_eval(bound: int, case) -> list[tuple[str, PBij]]:
    poset = case
    mapping = embed_poset(poset)
    fns = list(mapping.values())
    if len(set(fns)) != len(fns):
        kind = "#injective"
    elif any(
        poset.le(x, y) != preceq(mapping[x], mapping[y])
        for x in poset.elements
        for y in poset.elements
    ):
        kind = "#order"
    else:
        return []
    label = dumps({"elements": list(poset.elements), "leq": sorted(poset.leq)})
    return [(label + kind, EMPTY)]


def _compact_cases(bound: int, seed: int, sample: int) -> list:
    rng = random.Random(seed)
    cases = []
    for _ in range(sample):
        n = rng.randint(0, 3)
        avoid = _rand_subset(rng, range(8), 2)
        pairs = []
        used = set(avoid)
        for x in range(n):
            if rng.random() < 0.6:
                y = rng.choice([v for v in range(10) if v not in used])
                used.add(y)
                pairs.append((x, y))
        covered = _rand_subset(rng, range(12), 10)
        cases.append((n, PBij(pairs), avoid, covered, rng.random() < 0.5))
    return cases


def _compact_eval(bound: int, case) -> list[tuple[str, PBij]]:
    n, h0, avoid, covered, with_dommiss = case
    w = de.cover_witness(n, h0, avoid, covered, with_dommiss)
    in_base = w.restrict(n) == h0 and not (w.image & avoid)
    target = w.get(n)
    escapes = all(target != m for m in covered) and (
        not with_dommiss or target is not None
    )
    return _labelled(
        [] if in_base and escapes else [("", w)],
        lambda: {
            "n": n,
            "h0": pb_to_obj(h0),
            "X": sorted(avoid),
            "covered": sorted(covered),
            "dommiss": with_dommiss,
        },
    )


_SUITES = {
    "basis": (_basis_cases, _basis_eval, 5, 200),
    "much-wan": (_much_wan_cases, _much_wan_eval, 5, 100),
    "continuity": (_continuity_cases, _continuity_eval, 5, 100),
    "order": (_order_cases, _order_eval, 4, 50),
    "remark": (_remark_cases, _remark_eval, 5, 0),
    "dual": (_dual_cases, _dual_eval, 4, 50),
    "d-map": (_dmap_cases, _dmap_eval, 4, 0),
    "census": (_census_cases, _census_eval, 0, 0),
    "chains": (_chains_cases, _chains_eval, 0, 20),
    "embed": (_embed_cases, _embed_eval, 0, 0),
    "compactness": (_compact_cases, _compact_eval, 0, 20),
}


def suite_names() -> tuple[str, ...]:
    return tuple(_SUITES)


def available_cpus() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


# The rest of a run is forked out only when it would take longer than this
# serially.  Medians of 21 runs on a 2-CPU Xeon VM, Python 3.11.7, in a
# 20 MB process with I_5 and I_6 built: the rest of basis, much-wan and
# continuity at B = 5 (seeds 1-3, 7-20 ms serially), shared by this process
# and one forked child, ends 5.9-12.6 ms later than half its serial time
# (upper quartiles up to 14.9 ms), the fork, the child's share start, the
# pickle, the pipe and the reap included.  Two workers end the rest in half
# its serial time plus that cost, so a fork pays once the rest passes about
# twice the largest.
FORK_MIN_REST_S = 0.03


def _evaluate_shared(evaluate, bound: int, cases: list, workers: int) -> list:
    """Counterexamples of ``cases`` from ``workers`` processes, at least
    two: this one evaluates ``cases[0::workers]``, and forked child ``i``
    evaluates ``cases[i::workers]`` of the list it inherited, writes its
    counterexamples as (label, pairs) builtins, or the exception raised,
    pickled down its own pipe, and ends with ``os._exit``.  A child's
    exception is raised here; a child that ends without sending its whole
    result raises ChildProcessError.  Each pipe is read to EOF before its
    child is reaped, so no result is too large to send; if anything raises,
    the children still running are killed, and every child is reaped before
    this returns."""
    import pickle
    import signal

    children = {}  # pid -> read end of the child's pipe, until it is reaped
    try:
        for share in range(1, workers):
            read_end, write_end = os.pipe()
            pipe = open(read_end, "rb")
            try:
                pid = os.fork()
                if pid == 0:  # the child, which never returns
                    code = 1
                    try:
                        try:
                            result = [
                                (label, h.pairs)
                                for case in cases[share::workers]
                                for label, h in evaluate(bound, case)
                            ]
                        except BaseException as exc:  # re-raised in the parent
                            result = exc
                        with open(write_end, "wb") as out:
                            pickle.dump(result, out)
                        code = 0
                    finally:
                        os._exit(code)
            except BaseException:
                pipe.close()
                raise
            finally:
                os.close(write_end)
            children[pid] = pipe
        found = [c for case in cases[::workers] for c in evaluate(bound, case)]
        for pid in list(children):
            with children[pid] as pipe:
                payload = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del children[pid]
            if status:  # a child exits 0 only once its whole result is written
                code = os.waitstatus_to_exitcode(status)
                raise ChildProcessError(f"worker {pid} sent no result (exit code {code})")
            result = pickle.loads(payload)
            if isinstance(result, BaseException):
                raise result
            found += [(label, PBij._from_sorted(pairs)) for label, pairs in result]
        return found
    finally:
        for pid, pipe in children.items():
            os.kill(pid, signal.SIGKILL)
            pipe.close()
            os.waitpid(pid, 0)


def run_suite(
    name: str,
    bound: Optional[int] = None,
    seed: int = 1,
    sample: Optional[int] = None,
    jobs: int = 1,
) -> CheckReport:
    """Run one named invariant battery and report counterexamples.

    Identical (bound, seed, sample) give identical reports apart from the
    elapsed time, whatever the worker count.  The calling process builds
    the cases and evaluates them in order, and after each one estimates the
    rest's serial time as elapsed × left / done, timed from the first case.
    Once that passes FORK_MIN_REST_S, whose comment gives the measured cost
    of a fork, with at least two cases left, the rest is shared among
    ``min(jobs, left, available CPUs)`` workers by ``_evaluate_shared``: the
    calling process is one of them, and the others are forked children that
    evaluate their share of the cases they inherited, without building them
    again.  So ``jobs`` is an upper bound, and a run whose cases are cheap
    forks nothing.  Deciding again after every case forks a run whose costly
    cases follow cheap ones as soon as one of them is done.
    """
    if name not in _SUITES:
        raise UnknownSuite(f"unknown suite {name!r} (have {', '.join(_SUITES)})")
    build, evaluate, default_bound, default_sample = _SUITES[name]
    bound = default_bound if bound is None else bound
    sample = default_sample if sample is None else sample
    # every suite, even one that reads no universe, refuses a bound past
    # MAX_BOUND: the cost of dual grows with the square of the bound
    _check_bound(bound)
    check_nat(sample, name="sample")
    check_nat(jobs, name="jobs")
    if sample > SIZE_LIMIT:
        raise BoundTooLarge(f"sample {sample} exceeds the maximum {SIZE_LIMIT}")
    if jobs < 1:
        raise DomainError(f"jobs must be at least 1, got {jobs}")
    started = time.perf_counter()
    cases = build(bound, seed, sample)
    workers = min(jobs, available_cpus())
    found = []
    evaluating = time.perf_counter()
    for done, case in enumerate(cases, 1):
        found += evaluate(bound, case)
        left = len(cases) - done
        shared = min(workers, left)
        if shared > 1 and (time.perf_counter() - evaluating) * left / done > FORK_MIN_REST_S:
            found += _evaluate_shared(evaluate, bound, cases[done:], shared)
            break
    return _report(name, len(cases), found, started)

"""Deliberate faults, each caught by a cheap check.

Each case patches one named fault into the library, runs the cheapest check
that should catch it, at a bound of 5 or less, and asserts that the check
fails; the unpatched library passes the same check, so no case passes
because its check always fails.  A fault that no check catches is a finding,
and gets a check here.  ``continuity_p`` without ``max(p, r)`` is not a case:
that formula is the one in use.
"""

import itertools

import pytest

from strategies import (
    basis_refinement_one_less,
    closure_drops_its_last_drop,
    products_match_below_continuity_p,
    swap_conjugate,
)
from waning import (
    Dual,
    FixBelow,
    ImMiss,
    Intersection,
    InvalidDescriptor,
    UBasic,
    WNbhd,
    enumerate_universe,
    member,
    run_suite,
    waning_sample,
)
from waning import descriptors as de
from waning import harness


def _collapse_swap_conjugate(monkeypatch):
    monkeypatch.setattr(harness, "collapse", swap_conjugate)


def _continuity_right_key_drops_s(monkeypatch):
    real = harness._classes

    def fault(items, key):
        # continuity's right key ends in S(e), a tuple of sources, and
        # _member_classes' key in an image, a frozenset
        def weaker(h):
            k = key(h)
            return k if isinstance(k[1], frozenset) else k[:1]

        return real(items, weaker)

    monkeypatch.setattr(harness, "_classes", fault)


def _dual_reach_zero(monkeypatch):
    real = de._reach
    monkeypatch.setattr(
        de,
        "_reach",
        lambda d: ((), 0, 0) if isinstance(d, Dual) else real(d),
    )


def _scope_classes_ignore_reach(monkeypatch):
    real = harness._scope_classes
    monkeypatch.setattr(
        harness,
        "_scope_classes",
        lambda below, r, reach, bound: real(below, r, r, bound),
    )


def _intersection_tests_only_its_first_part(monkeypatch):
    monkeypatch.setattr(
        Intersection, "_has", lambda d, h: not d.parts or d.parts[0]._has(h)
    )


def _much_wan_basic(monkeypatch, rewrite):
    """Patch ``much_wan_witness`` to pass the basic set of each intersection
    it builds, ``UBasic(f, j, outside | picked)``, through ``rewrite``."""
    real = de.much_wan_witness

    def fault(f, g, r):
        d = real(f, g, r)
        if isinstance(d, FixBelow):
            return d
        fix, basic = d.parts
        return Intersection((fix, rewrite(basic, g)))

    monkeypatch.setattr(de, "much_wan_witness", fault)


def _much_wan_threshold_one_more(monkeypatch):
    _much_wan_basic(monkeypatch, lambda u, g: UBasic(u.f, u.n + 1, u.avoid))


def _much_wan_threshold_one_less(monkeypatch):
    _much_wan_basic(monkeypatch, lambda u, g: UBasic(u.f, max(u.n - 1, 0), u.avoid))


def _much_wan_picks_one_target_fewer(monkeypatch):
    def rewrite(u, g):
        # the picked targets are the avoided points of im(g), the lowest hits
        picked = sorted(u.avoid & g.image)
        return UBasic(u.f, u.n, u.avoid - frozenset(picked[-1:]))

    _much_wan_basic(monkeypatch, rewrite)


def _valid_r_min_one_too_high(monkeypatch):
    real = de.valid_r_min
    monkeypatch.setattr(de, "valid_r_min", lambda f, g: real(f, g) + 1)


def _suite_passes(name, bound):
    return lambda: run_suite(name, bound=bound, seed=1, jobs=1).ok


# everything, and the elements without 0 in their domain: the second reads
# h(0), through the inverse, which its image does not show
EVERYTHING, NO_SOURCE_0 = Intersection(()), Dual(ImMiss(0))


def _class_scan_matches_a_naive_scan():
    bound = 3
    naive = [h for h in enumerate_universe(bound) if not member(NO_SOURCE_0, h)]
    return harness._escapes(EVERYTHING, NO_SOURCE_0, bound) == naive


def _least_valid_radii_admitted():
    """WNbhd admits the least radius r with f(r) <= f(|g|) = f(|g below r|),
    for every f of the sample and g in I_3.  Valid radii are closed upwards,
    so a radius one too high passes the basis, much-wan and order suites."""
    for f in waning_sample():
        for g in enumerate_universe(3):
            r = next(
                r for r in itertools.count()
                if f(r) <= f(len(g)) == f(len(g.restrict(r)))
            )
            try:
                WNbhd(f, g, r)
            except InvalidDescriptor:
                return False
    return True


MUTANTS = [
    (basis_refinement_one_less, _suite_passes("basis", 3)),
    (closure_drops_its_last_drop, _suite_passes("much-wan", 3)),
    (_collapse_swap_conjugate, _suite_passes("d-map", 3)),
    (_continuity_right_key_drops_s, products_match_below_continuity_p),
    (_much_wan_threshold_one_more, _suite_passes("much-wan", 3)),
    (_much_wan_threshold_one_less, _suite_passes("much-wan", 3)),
    (_much_wan_picks_one_target_fewer, _suite_passes("much-wan", 3)),
    (_intersection_tests_only_its_first_part, _suite_passes("much-wan", 3)),
    (_dual_reach_zero, _class_scan_matches_a_naive_scan),
    (_scope_classes_ignore_reach, _class_scan_matches_a_naive_scan),
    (_valid_r_min_one_too_high, _least_valid_radii_admitted),
]


@pytest.mark.parametrize(
    "fault, check", MUTANTS, ids=[fault.__name__.lstrip("_") for fault, _ in MUTANTS]
)
def test_check_catches_fault(monkeypatch, fault, check):
    assert check()
    fault(monkeypatch)
    assert not check()

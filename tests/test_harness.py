import hashlib
import itertools
import json
import math
import os
import pickle
import time
from bisect import bisect_left

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from strategies import (
    basis_refinement_one_less,
    closure_drops_its_last_drop,
    count_forks,
    deadline,
    descriptors,
    dom_miss_negated,
    least_joint_radius,
    matches_all_products,
    pbijs,
    products_match_below_continuity_p,
    swap_conjugate,
)
from waning import (
    CONST_OMEGA,
    CONST_ZERO,
    EMPTY,
    BoundTooLarge,
    DomainError,
    FixBelow,
    InvalidDescriptor,
    InvalidPoset,
    SIZE_LIMIT,
    PBij,
    UBasic,
    UnknownSuite,
    WaningFn,
    WNbhd,
    all_posets,
    collapse,
    descending_chain_element,
    enumerate_universe,
    equality_check,
    member,
    preceq,
    product_containment_check,
    run_suite,
    staircase,
    subset_check,
    suite_names,
    universe_size,
    valid_r_min,
    waning_sample,
)
from waning import descriptors as de
from waning import harness
from waning.descriptors import DomMiss, Dual, Intersection, Wany
from waning.serialize import dumps, fn_to_obj, pb_to_obj
from waning.topology import Comparison, FinitePoset, compare


def test_universe_counts():
    assert universe_size(0) == 1
    assert universe_size(3) == 34
    assert universe_size(4) == 209
    assert universe_size(5) == 1546
    assert universe_size(6) == 13327
    for bound in range(7):
        assert len(enumerate_universe(bound)) == universe_size(bound)
    with pytest.raises(DomainError):
        enumerate_universe(-1)


def test_universe_small_listing():
    got = [p.pairs for p in enumerate_universe(2)]
    assert got == [
        (),
        ((0, 0),),
        ((0, 0), (1, 1)),
        ((0, 1),),
        ((0, 1), (1, 0)),
        ((1, 0),),
        ((1, 1),),
    ]


def _reference_universe(bound):
    """Every choice of domain and image, then one sort of the pair tuples."""
    points = range(bound)
    listing = [
        tuple(zip(dom, img))
        for k in range(bound + 1)
        for dom in itertools.combinations(points, k)
        for img in itertools.permutations(points, k)
    ]
    return sorted(listing)


@pytest.mark.parametrize("bound", range(7))
def test_universe_matches_sorted_reference(bound):
    universe = enumerate_universe(bound)
    assert [h.pairs for h in universe] == _reference_universe(bound)
    for h in universe:
        assert type(h) is PBij
        assert h.pairs == PBij(h.pairs).pairs


def test_universe_orders_lexicographically():
    us = enumerate_universe(3)
    assert us[0] == PBij()
    pairs = [p.pairs for p in us]
    assert pairs == sorted(pairs)
    assert len(set(pairs)) == len(pairs)


def test_universe_bound_guard():
    with pytest.raises(BoundTooLarge):
        enumerate_universe(8)


def test_universe_closed_under_operations():
    for bound in range(7):
        us = set(enumerate_universe(bound))
        for a in us:
            assert a.inverse() in us
            for r in range(bound + 1):
                assert a.restrict(r) in us
    us = set(enumerate_universe(3))
    for a in us:
        for b in us:
            assert a * b in us


def _pairs(hs):
    return sorted(h.pairs for h in hs)


def _assert_scope_members_exact(d, bound):
    """``_scope_members`` against a scan of I_B: the members of d, each once,
    in groups that share one key and are each in universe order."""

    def key(h):
        return h.get(0), len(h)

    groups = harness._scope_members(d, bound, key)
    assert _pairs(h for hs in groups for h in hs) == _pairs(
        h for h in enumerate_universe(bound) if member(d, h)
    )
    assert len({key(hs[0]) for hs in groups}) == len(groups)
    for hs in groups:
        assert {key(h) for h in hs} == {key(hs[0])}
        assert [h.pairs for h in hs] == _pairs(hs)


@given(descriptors(), st.integers(0, 4))
@settings(max_examples=80, deadline=None)
def test_scope_members_match_random_descriptors(d, bound):
    # the descriptors _scope_members serves: reach within the scope radius
    _, r, reach = de._reach(d)
    assume(reach <= r)
    _assert_scope_members_exact(d, bound)


@given(
    st.sampled_from(waning_sample()),
    pbijs(max_point=6, max_size=3),
    st.sampled_from(["zero", "min", "bound", "past"]),
    st.integers(0, 4),
)
@settings(max_examples=150, deadline=None)
def test_scope_members_match_prefix_sets(f, g, radius, bound):
    r = {
        "zero": 0,
        "min": valid_r_min(f, g),
        "bound": max(bound, valid_r_min(f, g)),
        "past": max(bound, valid_r_min(f, g)) + 2,
    }[radius]
    _assert_scope_members_exact(FixBelow(g, r), bound)
    try:
        w = WNbhd(f, g, r)
    except InvalidDescriptor:
        return
    _assert_scope_members_exact(w, bound)


@given(descriptors(), descriptors(), st.integers(0, 4))
@settings(max_examples=200, deadline=None)
def test_class_scans_match_a_naive_scan(d1, d2, bound):
    # the scans return their elements unsorted: compared as multisets
    us = enumerate_universe(bound)
    assert _pairs(harness._escapes(d1, d2, bound)) == _pairs(
        h for h in us if member(d1, h) and not member(d2, h)
    )
    assert _pairs(harness._mismatches(d1, d2, bound)) == _pairs(
        h for h in us if member(d1, h) != member(d2, h)
    )
    both_ways = subset_check(d1, d2, bound).counterexamples
    both_ways += subset_check(d2, d1, bound).counterexamples
    # sorted by the key of _report: the witness's JSON, then the label
    assert equality_check(d1, d2, bound).counterexamples == tuple(
        sorted(both_ways, key=lambda c: (dumps(pb_to_obj(c[1])), c[0]))
    )


def _below(pairs, r):
    return pairs[: bisect_left(pairs, (r,))]


@given(st.integers(0, 5), st.data())
@settings(max_examples=200, deadline=None)
def test_scope_classes_partition_the_scope(bound, data):
    r = data.draw(st.integers(0, bound + 1), label="r")
    reach = data.draw(st.integers(r, bound + 2), label="R")
    # drawn from I_{B+1}, so the prefix may hold a point at or past the bound
    g = data.draw(st.sampled_from(enumerate_universe(bound + 1)), label="g")
    below = _below(g.pairs, r)
    scoped = list(harness._scope_classes(below, r, reach, bound))
    classes = [[h.pairs for h in harness._class_elements(*cls)] for _, cls in scoped]
    got = [pairs for c in classes for pairs in c]
    assert len(got) == len(set(got))
    assert set(got) == {
        h.pairs for h in enumerate_universe(bound) if _below(h.pairs, r) == below
    }

    def key(pairs):
        return _below(pairs, reach), frozenset(y for _, y in pairs)

    keys = []
    for c in classes:
        assert {key(pairs) for pairs in c} == {key(c[0])}
        keys.append(key(c[0]))
        # the representative sends R, R + 1, ... onto its targets past R in order
        head = _below(c[0], reach)
        past = c[0][len(head) :]
        assert past == tuple(zip(range(reach, reach + len(past)), sorted(y for _, y in past)))
    # one class per key: the classes are whole key classes
    assert len(set(keys)) == len(keys)
    # each class comes with the first element listed, built without listing,
    # and the size needs no listing either
    for (rep, (_, targets, tail)), c in zip(scoped, classes):
        assert rep.pairs == c[0]
        assert len(c) == math.perm(len(tail), len(targets))


@given(st.data(), st.integers(0, 4))
@settings(max_examples=200, deadline=None)
def test_mismatches_cover_nested_and_disjoint_scopes(data, bound):
    small = st.sampled_from(enumerate_universe(3))
    g1 = data.draw(small, label="g1")
    # the same g gives nested scopes; another one mostly disjoint ones
    g2 = data.draw(st.sampled_from([g1, data.draw(small, label="other")]), label="g2")
    d1, d2 = (FixBelow(g, data.draw(st.integers(0, 4), label="r")) for g in (g1, g2))
    assert _pairs(harness._mismatches(d1, d2, bound)) == _pairs(
        h for h in enumerate_universe(bound) if member(d1, h) != member(d2, h)
    )


@pytest.mark.parametrize("check", [subset_check, equality_check])
@pytest.mark.parametrize(
    "d", [DomMiss(0), WNbhd(CONST_ZERO, PBij([(0, 0)]), 1), FixBelow(PBij([(9, 9)]), 10)]
)
def test_scans_refuse_bounds_outside_the_universe(check, d):
    with pytest.raises(DomainError):
        check(d, d, -1)
    with pytest.raises(BoundTooLarge):
        check(d, d, harness.MAX_BOUND + 1)


@pytest.mark.parametrize("name", suite_names())
def test_every_suite_refuses_a_bound_above_the_maximum(name, monkeypatch):
    # refused before any case is built: dual would otherwise run, at a cost
    # that grows with the square of the bound
    def no_cases(*args):
        raise AssertionError("cases built")

    _, *rest = harness._SUITES[name]
    monkeypatch.setitem(harness._SUITES, name, (no_cases, *rest))
    with pytest.raises(BoundTooLarge, match="exceeds the maximum"):
        run_suite(name, bound=harness.MAX_BOUND + 1, jobs=1)


def test_product_containment_refuses_bounds_outside_the_universe():
    a = b = PBij([(0, 0)])
    with pytest.raises(DomainError):
        product_containment_check(CONST_ZERO, a, b, -1)
    with pytest.raises(BoundTooLarge):
        product_containment_check(CONST_ZERO, a, b, harness.MAX_BOUND + 1)
    # refused before any left class is generated: that work grows as 2^bound
    with deadline(5), pytest.raises(BoundTooLarge):
        product_containment_check(CONST_ZERO, EMPTY, EMPTY, 40)


@given(descriptors())
@settings(max_examples=200, deadline=None)
def test_membership_is_constant_on_reach_classes(d):
    reach = de._reach(d)[2]

    verdicts = {}
    for h in enumerate_universe(4):
        verdicts.setdefault((_below(h.pairs, reach), h.image), set()).add(member(d, h))
    assert all(len(v) == 1 for v in verdicts.values())


def test_subset_check_examples():
    f, g = CONST_ZERO, PBij([(0, 0)])
    r = valid_r_min(f, g)
    rep = subset_check(WNbhd(f, g, r + 2), WNbhd(f, g, r), 5)
    assert rep.ok and rep.cases == 1546
    rep = subset_check(UBasic(CONST_ZERO, 1, {0}), UBasic(CONST_ZERO, 1, set()), 3)
    assert rep.ok
    d1, d2 = UBasic(CONST_ZERO, 1, set()), UBasic(CONST_ZERO, 1, {0})
    rep = subset_check(d1, d2, 3)
    assert not rep.ok
    witnesses = [w for _, w in rep.counterexamples]
    assert PBij([(0, 0)]) in witnesses
    # soundness: every reported counterexample re-verifies directly
    from waning import member

    for w in witnesses:
        assert member(d1, w) and not member(d2, w)


def test_equality_check_wany_identity():
    lhs = Wany(2, [frozenset()])
    rhs = Intersection((DomMiss(0), DomMiss(1)))
    rep = equality_check(lhs, rhs, 5)
    assert rep.ok and rep.cases == 2 * 1546


def test_product_containment_examples():
    rep = product_containment_check(CONST_ZERO, PBij([(0, 1)]), PBij([(1, 2)]), 5)
    assert rep.ok
    rep = product_containment_check(CONST_OMEGA, PBij([(0, 1)]), PBij([(2, 0)]), 4)
    assert rep.ok
    rep = product_containment_check(WaningFn(drops=(2, 1)), PBij(), PBij(), 4)
    assert rep.ok


@pytest.mark.parametrize(
    "f, a, b",
    [
        (CONST_ZERO, PBij([(0, 1)]), PBij([(1, 2)])),
        (WaningFn(drops=(2, 1)), PBij([(1, 0)]), PBij([(0, 1), (2, 2)])),
        (CONST_OMEGA, PBij([(0, 1)]), PBij([(2, 0)])),
        # fails at seed 2 of the continuity suite
        (WaningFn(drops=(9,)), PBij([(1, 1), (2, 0)]), PBij([(0, 0)])),
    ],
)
def test_product_containment_matches_brute_force(f, a, b):
    assert matches_all_products(f, a, b, 4)


def test_product_containment_matches_brute_force_at_bound_5():
    # the failing case of seed 2: 2,166 counterexamples, 66 distinct products
    f, a, b = WaningFn(drops=(9,)), PBij([(1, 1), (2, 0)]), PBij([(0, 0)])
    assert matches_all_products(f, a, b, 5)


@pytest.mark.parametrize("seed", [2, 4, 10])
def test_product_containment_matches_brute_force_on_failing_seeds(monkeypatch, seed):
    # the failing suite comes from a named fault, a lowered continuity_p
    with monkeypatch.context() as mp:
        mp.setattr(harness.de, "continuity_p", least_joint_radius)
        assert not run_suite("continuity", bound=4, seed=seed, jobs=1).ok
    for f, a, b in harness._continuity_cases(4, seed, 100):
        assert matches_all_products(f, a, b, 4)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: continuity_p can return a radius below r, and the "
    "product then leaves W(f, a * b, r); seed 2 at bound 4 reports 74 "
    "counterexamples until it returns at least r",
)
def test_continuity_passes_at_seed_2():
    assert run_suite("continuity", bound=4, seed=2, jobs=1).ok


def test_continuity_builds_one_report(monkeypatch):
    # its cases hand back their products unsorted, and the suite sorts once
    calls = []
    real = harness._report
    monkeypatch.setattr(harness, "_report", lambda *args: calls.append(args) or real(*args))
    run_suite("continuity", bound=4, sample=5, jobs=1)
    assert len(calls) == 1


def test_product_containment_matches_brute_force_below_continuity_p():
    assert products_match_below_continuity_p()


def _lowered_continuity_p(monkeypatch):
    monkeypatch.setattr(de, "continuity_p", least_joint_radius)


# failing reports under named faults, as (suite, bound, seed, fault, number
# of counterexamples, sha256 of the report's JSON without "ms"); the digests
# were recorded from labels built for every case, before only a case with a
# counterexample built one.  much-wan's row holds 17 #radius and 2 #equal
# counterexamples: the witness reads the closure off f itself, so it refuses
# 17 radii that the faulted closure makes the suite pick
FAILING_REPORTS = [
    (
        "basis", 3, 1, basis_refinement_one_less, 17,
        "ad231c38c53737258dd750dfc26f01ecf771e71e1c7a8befcc7b7a1a162d03f1",
    ),
    (
        "much-wan", 3, 1, closure_drops_its_last_drop, 19,
        "9b2a228c02b69c71c0addc13baf9d2c7f50ae0491d04871aab81f181bf168dbb",
    ),
    (
        "continuity", 4, 2, _lowered_continuity_p, 1039,
        "a5909c07479d1c109c3dfcef168524508f2d6ed7c7980b69758fd903991e714a",
    ),
    # every cross-family witness is reported once per sampled f but the top:
    # its DomMiss verdict is built once per run, and still gates each case
    (
        "dual", 4, 1, dom_miss_negated, 1568,
        "915ed43def6f1d02fc409a5c335a05f030f13be62438130973812b2fee2ef6b9",
    ),
]


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize(
    "name, bound, seed, fault, count, digest",
    FAILING_REPORTS,
    ids=[name for name, *_ in FAILING_REPORTS],
)
def test_failing_reports_stay_byte_identical(
    monkeypatch, name, bound, seed, fault, count, digest, jobs
):
    fault(monkeypatch)
    monkeypatch.setattr(harness, "available_cpus", lambda: 2)
    monkeypatch.setattr(harness, "FORK_MIN_REST_S", 0)
    forks = count_forks(monkeypatch)
    obj = run_suite(name, bound=bound, seed=seed, jobs=jobs).to_obj()
    del obj["ms"]
    assert len(forks) == jobs - 1
    assert len(obj["counterexamples"]) == count
    assert hashlib.sha256(json.dumps(obj).encode()).hexdigest() == digest


def _dmap_kinds():
    report = run_suite("d-map", bound=3)
    return {inputs.rsplit("#", 1)[1] for inputs, _ in report.counterexamples}


def _up_set(n, bound):
    g = PBij.identity(n)
    return [h for h in enumerate_universe(bound) if h.extends(g)]


def _dmap_all_pairs_ok(n, bound):
    """The reference verdict: collapse(id_n, .) is injective on the up-set
    of id_n in I_B and multiplicative on every pair of it."""
    g, ups = PBij.identity(n), _up_set(n, bound)
    image = {h: harness.collapse(g, h) for h in ups}
    if len(set(image.values())) != len(ups):
        return False
    return all(image[h * k] == image[h] * image[k] for h in ups for k in ups)


def _swap_rank_one(g, h):
    # injective, but sends the idempotent {0->0} to {0->1}, which is not one
    a, b, d = PBij([(0, 0)]), PBij([(0, 1)]), collapse(g, h)
    return {a: b, b: a}.get(d, d)


@pytest.mark.parametrize(
    "faulty",
    [
        collapse,
        lambda g, h: collapse(g, h).inverse(),
        lambda g, h: EMPTY,
        _swap_rank_one,
        swap_conjugate,
    ],
    ids=["collapse", "inverse", "empty", "swap-rank-one", "swap-conjugate"],
)
def test_dmap_generator_check_matches_all_pairs(monkeypatch, faulty):
    monkeypatch.setattr(harness, "collapse", faulty)
    for bound in range(5):
        for n in harness._dmap_cases(bound, 1, 0):
            ok = not harness._dmap_eval(bound, n)
            reference = _dmap_all_pairs_ok(n, bound)
            assert reference or not ok, (bound, n)
            if faulty is swap_conjugate:
                assert reference and ok == (bound - n < 1), (bound, n)
            else:
                assert ok == reference, (bound, n)


def test_dmap_collapses_each_element_of_the_up_set_once(monkeypatch):
    met = []
    monkeypatch.setattr(harness, "collapse", lambda g, h: met.append(h) or collapse(g, h))
    for bound in range(6):
        for n in range(3):
            met.clear()
            harness._dmap_eval(bound, n)
            assert met == _up_set(n, bound)


def test_dmap_bounds_below_the_idempotents_pass():
    for bound in range(3):
        report = run_suite("d-map", bound=bound)
        assert report.ok and report.cases == 3


def test_dmap_reports_a_faulty_collapse(monkeypatch):
    assert _dmap_kinds() == set()
    # each fails to invert the shift: inversion reverses the order of
    # products, a constant EMPTY is not injective, and _swap_rank_one does
    # not keep the idempotent {0->0}
    inverse, empty = (lambda g, h: collapse(g, h).inverse()), (lambda g, h: EMPTY)
    for faulty in (inverse, empty, _swap_rank_one):
        monkeypatch.setattr(harness, "collapse", faulty)
        assert _dmap_kinds() == {"inverse"}


def test_dual_reports_a_faulty_compare(monkeypatch):
    assert run_suite("dual").ok
    f, g = WaningFn(drops=(2,)), WaningFn(drops=(3, 1))

    def faulty(t1, t2):
        if (t1.f, t2.f, t2.dual) == (f, g, True):
            return Comparison.FINER_STRICT
        return compare(t1, t2)

    monkeypatch.setattr(harness, "compare", faulty)
    report = run_suite("dual")
    assert [inputs for inputs, _ in report.counterexamples] == [
        json.dumps({"f": fn_to_obj(f), "g": fn_to_obj(g)}, separators=(",", ":"))
        + "#compare"
    ]


def test_dual_witness_fails_at_the_top():
    # W(0, EMPTY, r) allows no mistake, so {(r, x)} escapes it when x < r
    found = harness._cross_family_failures(
        CONST_ZERO, 4, harness._cross_family_witnesses(4)
    )
    cases = [json.loads(label.removesuffix("#witness")) for label, _ in found]
    assert sorted((c["x"], c["r"]) for c in cases) == [
        (x, r) for x in range(4) for r in range(8) if x < r
    ]


@pytest.mark.parametrize(
    "g", [CONST_OMEGA, WaningFn(drops=(1,)), WaningFn(omega_prefix=1, drops=(5, 2))]
)
def test_dual_neighbourhoods_of_empty_escape_domain_avoidance(g):
    # independent of the witness: a scan of I_4 finds an escaping element.
    # The scan sees radii below its bound only: an element of the dual
    # r-neighbourhood has no target below r, so in I_4 it is EMPTY once r >= 4
    for x in range(4):
        for r in range(4):
            assert not subset_check(Dual(WNbhd(g, EMPTY, r)), DomMiss(x), 4).ok


def test_waning_sample_is_fixed():
    sample = waning_sample()
    assert len(sample) == 50
    assert len(set(sample)) == 50
    assert sample == waning_sample()
    assert CONST_OMEGA in sample and CONST_ZERO in sample
    assert any(w.omega_prefix > 0 and not w.const_omega for w in sample)


def test_all_posets_counts():
    posets = all_posets()
    by_size = {}
    for p in posets:
        by_size.setdefault(len(p.elements), []).append(p)
    assert [len(by_size[n]) for n in (1, 2, 3, 4)] == [1, 3, 19, 219]


def test_all_posets_matches_the_brute_force_filter():
    # oracle: pass every reflexive relation through FinitePoset, in order
    oracle = []
    for n in range(1, 5):
        labels = "abcd"[:n]
        reflexive = [(a, a) for a in labels]
        off_diag = [(a, b) for a in labels for b in labels if a != b]
        for picks in itertools.product((False, True), repeat=len(off_diag)):
            rel = reflexive + [p for p, take in zip(off_diag, picks) if take]
            try:
                oracle.append(FinitePoset(tuple(labels), rel))
            except InvalidPoset:
                pass
    assert all_posets() == oracle


omega_free = st.lists(st.integers(1, 6), max_size=3, unique=True).map(
    lambda drops: WaningFn(drops=tuple(sorted(drops, reverse=True)))
)


@given(st.lists(omega_free, max_size=7))
def test_longest_chain_ignores_duplicates_and_matches_brute_force(fns):
    distinct = list(dict.fromkeys(fns))
    # oracle: the largest set of distinct functions comparable pairwise
    brute = max(
        size
        for size in range(len(distinct) + 1)
        for chain in itertools.combinations(distinct, size)
        if all(preceq(f, g) or preceq(g, f) for f, g in itertools.combinations(chain, 2))
    )
    assert harness._longest_chain(fns + fns) == harness._longest_chain(fns) == brute


def test_unknown_suite():
    with pytest.raises(UnknownSuite):
        run_suite("nope")


def test_suite_names_cover_contract():
    assert set(suite_names()) == {
        "basis",
        "much-wan",
        "continuity",
        "order",
        "remark",
        "dual",
        "d-map",
        "census",
        "chains",
        "embed",
        "compactness",
    }


def test_census_suite():
    rep = run_suite("census")
    assert rep.ok and rep.cases == 11


def test_report_json_shape():
    rep = run_suite("census")
    obj = rep.to_obj()
    assert set(obj) == {"suite", "cases", "counterexamples", "ms"}
    json.dumps(obj)


def test_determinism_same_seed():
    a = run_suite("dual", bound=3, seed=7, sample=10)
    b = run_suite("dual", bound=3, seed=7, sample=10)
    assert (a.name, a.cases, a.counterexamples) == (b.name, b.cases, b.counterexamples)


def test_determinism_across_workers(monkeypatch):
    monkeypatch.setattr(harness, "available_cpus", lambda: 2)
    monkeypatch.setattr(harness, "FORK_MIN_REST_S", 0)
    forks = count_forks(monkeypatch)
    serial = run_suite("remark", bound=4, seed=1)
    assert forks == []
    parallel = run_suite("remark", bound=4, seed=1, jobs=2)
    assert len(forks) == 1
    assert serial.cases == parallel.cases
    assert serial.counterexamples == parallel.counterexamples


def _unrestorable():
    raise RuntimeError("a PBij crossed the worker pipe")


def test_counterexamples_come_back_from_workers(monkeypatch):
    # a named fault makes d-map fail; of its cases n = 0, 1, 2 the caller
    # evaluates n = 0, then shares the rest with one forked child, which
    # evaluates n = 2, which fails
    monkeypatch.setattr(harness, "collapse", swap_conjugate)
    monkeypatch.setattr(harness, "available_cpus", lambda: 2)
    monkeypatch.setattr(harness, "FORK_MIN_REST_S", 0)
    forks = count_forks(monkeypatch)
    # a PBij need not unpickle: only builtins cross the pipe from a child
    monkeypatch.setattr(PBij, "__reduce__", lambda self: (_unrestorable, ()))
    serial = run_suite("d-map", bound=4, jobs=1).to_obj()
    with deadline(20):
        parallel = run_suite("d-map", bound=4, jobs=2).to_obj()
    assert len(forks) == 1
    del serial["ms"], parallel["ms"]
    assert parallel == serial
    from_child = dumps({"idempotent": [[0, 0], [1, 1]]}) + "#inverse"
    assert from_child in {c["inputs"] for c in serial["counterexamples"]}


def test_run_suite_caps_workers(monkeypatch):
    forks = count_forks(monkeypatch)
    monkeypatch.setattr(harness, "available_cpus", lambda: 3)
    monkeypatch.setattr(harness, "FORK_MIN_REST_S", 0)
    serial = run_suite("remark", bound=3)
    assert forks == []
    # on 3 CPUs the caller evaluates the first case, then is one of the
    # workers for the rest: the 9 remark cases left take 3 workers, so 2
    # forks; the 2 d-map cases left take 2 workers, so 1; one CPU runs
    # in-process
    capped = run_suite("remark", bound=3, jobs=1000)
    assert len(forks) == 2
    few = run_suite("d-map", bound=2, jobs=1000)
    assert len(forks) == 3
    monkeypatch.setattr(harness, "available_cpus", lambda: 1)
    run_suite("remark", bound=3, jobs=1000)
    assert len(forks) == 3
    assert capped.cases == serial.cases
    assert capped.counterexamples == serial.counterexamples
    assert few.ok and few.cases == 3


@pytest.mark.parametrize("jobs", [1, 2])
def test_zero_case_run_forks_nothing(monkeypatch, jobs):
    forks = count_forks(monkeypatch)
    monkeypatch.setattr(harness, "available_cpus", lambda: 2)
    monkeypatch.setattr(harness, "FORK_MIN_REST_S", 0)
    rep = run_suite("basis", sample=0, jobs=jobs)
    assert rep.ok and rep.cases == 0
    assert forks == []


class CaseFailed(Exception):
    pass


# with 2 workers and FORK_MIN_REST_S at 0 the caller evaluates case 0, then
# shares cases 1-5: it evaluates 1, 3 and 5, and the forked child 2 and 4
@pytest.mark.parametrize("failing", [2, 1], ids=["child", "caller"])
def test_a_raising_case_surfaces_and_leaves_no_child(monkeypatch, failing):
    def evaluate(bound, case):
        if case == failing:
            raise CaseFailed(f"case {case}")
        return [(f"case {case}", EMPTY)]

    monkeypatch.setitem(harness._SUITES, "remark", (lambda *_: list(range(6)), evaluate, 3, 0))
    monkeypatch.setattr(harness, "available_cpus", lambda: 2)
    monkeypatch.setattr(harness, "FORK_MIN_REST_S", 0)
    forks = count_forks(monkeypatch)
    with deadline(20), pytest.raises(CaseFailed, match=f"case {failing}"):
        run_suite("remark", jobs=2)
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_child_that_dies_without_a_result_raises(monkeypatch):
    caller = os.getpid()

    def evaluate(bound, case):
        if case == 2 and os.getpid() != caller:
            os._exit(3)
        return [(f"case {case}", EMPTY)]

    monkeypatch.setitem(harness._SUITES, "remark", (lambda *_: list(range(6)), evaluate, 3, 0))
    monkeypatch.setattr(harness, "available_cpus", lambda: 2)
    monkeypatch.setattr(harness, "FORK_MIN_REST_S", 0)
    forks = count_forks(monkeypatch)
    with deadline(20), pytest.raises(ChildProcessError, match="exit code 3"):
        run_suite("remark", jobs=2)
    assert len(forks) == 1


def test_a_result_larger_than_the_pipe_buffer_comes_back_whole(monkeypatch):
    pad = "x" * 1000

    def evaluate(bound, case):
        return [(f"case {case}.{k} {pad}", PBij([(case, k)])) for k in range(300)]

    monkeypatch.setitem(harness._SUITES, "remark", (lambda *_: list(range(10)), evaluate, 3, 0))
    monkeypatch.setattr(harness, "available_cpus", lambda: 2)
    monkeypatch.setattr(harness, "FORK_MIN_REST_S", 0)
    forks = count_forks(monkeypatch)
    # the caller evaluates case 0 and then 1, 3, 5, 7 and 9; the child 2-8
    child_share = [(label, h.pairs) for case in range(2, 10, 2) for label, h in evaluate(3, case)]
    assert len(pickle.dumps(child_share)) > 1 << 20
    serial = run_suite("remark", jobs=1).to_obj()
    with deadline(20):
        parallel = run_suite("remark", jobs=2).to_obj()
    assert len(forks) == 1
    del serial["ms"], parallel["ms"]
    assert parallel == serial
    assert len(serial["counterexamples"]) == 3000


def _sleepy_suite(monkeypatch, cases, slow):
    """Put a suite of ``cases`` cases in place of remark: each finds one
    counterexample, and the cases in ``slow`` first sleep four times
    FORK_MIN_REST_S.  Returns the cases that this process evaluates."""
    caller, seen = os.getpid(), []

    def evaluate(bound, case):
        if os.getpid() == caller:
            seen.append(case)
        if case in slow:
            time.sleep(4 * harness.FORK_MIN_REST_S)
        return [(f"case {case}", PBij([(case, 0)]))]

    monkeypatch.setitem(harness._SUITES, "remark", (lambda *_: list(range(cases)), evaluate, 3, 0))
    monkeypatch.setattr(harness, "available_cpus", lambda: 2)
    return seen


def test_slow_cases_fork_one_child_and_give_the_serial_report(monkeypatch):
    seen = _sleepy_suite(monkeypatch, 4, range(4))
    forks = count_forks(monkeypatch)
    serial = run_suite("remark", jobs=1).to_obj()
    assert forks == [] and seen == [0, 1, 2, 3]
    # after case 0 the rest is estimated at 12 times FORK_MIN_REST_S, so two
    # workers share cases 1-3: the caller evaluates 1 and 3
    seen.clear()
    with deadline(20):
        parallel = run_suite("remark", jobs=2).to_obj()
    assert len(forks) == 1 and seen == [0, 1, 3]
    del serial["ms"], parallel["ms"]
    assert parallel == serial
    assert len(serial["counterexamples"]) == 4


def test_a_run_forks_after_its_first_slow_case(monkeypatch):
    # cases 0 and 1 return at once and 2-5 sleep, so the estimate first
    # passes FORK_MIN_REST_S after case 2; the caller then evaluates 3 and 5
    seen = _sleepy_suite(monkeypatch, 6, range(2, 6))
    forks = count_forks(monkeypatch)
    with deadline(20):
        report = run_suite("remark", jobs=2)
    assert len(forks) == 1 and seen == [0, 1, 2, 3, 5]
    assert [h for _, h in report.counterexamples] == [PBij([(c, 0)]) for c in range(6)]


def test_run_suite_refuses_samples_above_the_size_limit(monkeypatch):
    def build(bound, seed, sample):
        raise AssertionError("cases were built")

    chains = harness._SUITES["chains"]
    monkeypatch.setitem(harness._SUITES, "chains", (build,) + chains[1:])
    with pytest.raises(BoundTooLarge):
        run_suite("chains", sample=SIZE_LIMIT + 1)


def test_run_suite_rejects_bad_jobs():
    for jobs in (0, -1):
        with pytest.raises(DomainError):
            run_suite("census", jobs=jobs)


@pytest.mark.parametrize(
    "call",
    [
        lambda: run_suite("census", bound=2.5),
        lambda: run_suite("census", bound=-1),
        lambda: run_suite("census", sample=2.5),
        lambda: run_suite("census", jobs=1.5),
        lambda: run_suite("census", jobs=True),
        lambda: subset_check(DomMiss(0), DomMiss(0), True),
        lambda: subset_check(DomMiss(0), DomMiss(0), 2.0),
        lambda: enumerate_universe(2.5),
        lambda: enumerate_universe(True),
        lambda: enumerate_universe(1.0),
        lambda: universe_size(-1),
        lambda: staircase(2.5),
        lambda: staircase(-1),
        lambda: descending_chain_element(-1),
        lambda: PBij.identity(True),
        lambda: PBij.identity(-1),
        lambda: PBij.identity(2.0),
        lambda: PBij([(0, 5), (3, 1)]).restrict(True),
        lambda: PBij([(0, 5), (3, 1)]).restrict(0.5),
    ],
    ids=[
        "suite-bound-float",
        "suite-bound-negative",
        "suite-sample-float",
        "suite-jobs-float",
        "suite-jobs-bool",
        "subset-bound-bool",
        "subset-bound-float",
        "universe-float",
        "universe-bool",
        "universe-integral-float",
        "universe-size-negative",
        "staircase-float",
        "staircase-negative",
        "chain-negative",
        "identity-bool",
        "identity-negative",
        "identity-float",
        "restrict-bool",
        "restrict-float",
    ],
)
def test_entry_points_refuse_non_naturals(call):
    # 1.0 and True equal 1, so they must not find a cached universe of bound 1
    enumerate_universe(1)
    with pytest.raises(DomainError, match="not a natural"):
        call()


def test_counterexamples_sorted_canonically():
    rep = subset_check(UBasic(CONST_ZERO, 0, set()), DomMiss(0), 3)
    assert not rep.ok
    keys = [json.dumps(pb_to_obj(w), separators=(",", ":")) for _, w in rep.counterexamples]
    assert keys == sorted(keys)


def test_report_serialises_each_witness_once(monkeypatch):
    calls = []

    def counting_dumps(obj):
        calls.append(obj)
        return dumps(obj)

    monkeypatch.setattr(harness, "dumps", counting_dumps)
    ws = [EMPTY, PBij([(2, 0)]), PBij([(10, 0)])]
    found = [(f"label{i}", w) for i in reversed(range(10)) for w in ws]
    report = harness._report("r", 0, found, time.perf_counter())
    assert len(calls) == 3
    # by JSON, not by pairs: [[10,0]] before [[2,0]], and a non-empty witness
    # before []; equal witnesses by label
    assert report.counterexamples == tuple(
        (f"label{i}", w) for w in reversed(ws) for i in range(10)
    )
    # a longer witness before its prefix, against both the pairs and the labels
    found = [("a", PBij([(0, 1)])), ("b", PBij([(0, 1), (2, 3)]))]
    report = harness._report("r", 0, found, time.perf_counter())
    assert report.counterexamples == tuple(reversed(found))
